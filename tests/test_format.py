"""format_rows of quadswarm/_kernels.c against Python's '%.17g' % x.

Every CSV number is written as '%.17g' % x writes it. format_rows
finds the 17 digits in 128-bit integer arithmetic where the scaled
value fits and through snprintf in the "C" locale elsewhere;
mission._format_rows falls back to Python's '%' where the shared
object has no format_rows. These tests hold the compiled lines to
Python's byte for byte, value by value and on whole artifacts. Where no
C compiler is found, they are skipped.
"""

import locale
import os
import sys
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mission_config
from quadswarm import mission, native
from quadswarm.mission import run_mission


@pytest.fixture(scope="module")
def compiled(lib):
    """native._lib set to the fresh build, which must have format_rows
    wherever the compiler has unsigned __int128, as 64-bit gcc and
    clang do."""
    if sys.maxsize < 2 ** 32 and not hasattr(lib, "format_rows"):
        pytest.skip("this compiler builds no format_rows")
    assert hasattr(lib, "format_rows")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_lib", lib)
        yield lib


def python_lines(table):
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in table.tolist())


def check(values, cols=1):
    """The compiled lines of values, cols to a row, equal Python's."""
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    got = mission._format_rows(table).decode()
    want = python_lines(table)
    if got != want:
        bad = [(x, g, w) for x, g, w in zip(
            table.ravel().tolist(), got.replace("\n", ",").split(","),
            want.replace("\n", ",").split(",")) if g != w]
        pytest.fail(f"{len(bad)} values differ, first {bad[:5]}")
    return want


def ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestFormatRows:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    def test_drawn_floats(self, compiled, values):
        check(values)

    def test_random_bit_patterns(self, compiled):
        """10^6 seeded 64-bit patterns: every exponent, about one in
        2048 a NaN or an inf, 8 to a row."""
        bits = np.random.default_rng(33).integers(
            0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        check(bits.view(np.float64), cols=8)

    def test_powers_of_ten_and_their_neighbours(self, compiled):
        """At and one ulp either side of 10^k, where the digits round up
        to the next power of ten or stop just short of it; the exponent
        is that of the rounded digits, so 9.9999999999999995e-07 keeps
        its 17 nines."""
        values = [x for k in range(-30, 40) for x in ulps(float(f"1e{k}"))]
        text = check(values + [-x for x in values])
        assert "9.9999999999999974e-07\n9.9999999999999995e-07\n" \
            "1.0000000000000002e-06\n" in text

    def test_exact_ties_round_half_to_even(self, compiled):
        """Values whose exact decimal expansion has 18 significant
        digits, the last a 5: a tie at the 17th digit, which goes to the
        even digit. Among them 9 / 2^23, whose tie falls in the binary
        remainder, not in a decimal one."""
        rng = np.random.default_rng(34)
        values = [1234567890123456.75, 1234567890123456.25, 9 / 2 ** 23]
        for _ in range(60000):
            bits = int(rng.integers(1, 54))
            x = float(int(rng.integers(1, 2 ** bits)) | 1) \
                * 2.0 ** int(rng.integers(-80, 0))
            if len(Decimal(x).as_tuple().digits) == 18:
                values += [x, -x]
        assert len(values) > 1000
        text = check(values)
        assert text.startswith("1234567890123456.8\n1234567890123456.2\n"
                               "1.0728836059570312e-06\n")

    def test_signed_zeros_infinities_nans_and_subnormals(self, compiled):
        nan = np.float64(np.nan)
        negative_nan = -nan
        assert np.signbit(negative_nan)
        tiny = np.finfo(float).smallest_subnormal
        values = [0.0, -0.0, np.inf, -np.inf, nan, negative_nan, tiny,
                  -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  np.nextafter(np.finfo(float).max, 0.0),
                  np.finfo(float).max, 2.0 ** 127, 2.0 ** 128,
                  *np.random.default_rng(35).uniform(0.0, 2.0 ** -1022, 100)]
        assert check(values).startswith("0\n-0\ninf\n-inf\nnan\nnan\n"
                                        "4.9406564584124654e-324\n")

    def test_the_longest_number_takes_24_bytes(self, compiled):
        """25 bytes a number, its comma or LF included, bound each
        block's buffer."""
        values = [-1.2345678901234567e-308, -0.00012345678901234567,
                  -1.2345678901234567e+100, -1.2345678901234567e-100]
        lines = check(values).splitlines()
        assert [len(x) for x in lines] == [24, 23, 24, 24]
        assert lines[0] == "-1.2345678901234567e-308"
        rows = np.random.default_rng(36).integers(
            0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
        assert max(map(len, check(rows).splitlines())) == 24

    def test_slow_path_ignores_lc_numeric(self, compiled):
        """The numbers snprintf writes (below about 1e-6 and past 2^128)
        keep their '.' under a comma-decimal LC_NUMERIC."""
        saved = locale.setlocale(locale.LC_NUMERIC)
        for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                     "fr_FR.utf8", "ru_RU.UTF-8", "nl_NL.UTF-8"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                continue
            break
        else:
            pytest.skip("no comma-decimal locale is installed")
        try:
            assert locale.localeconv()["decimal_point"] == ","
            check([1.5e-7, -2.5e-300, 5e-324, 3.5e200, 0.5, 1.5e-6], cols=2)
        finally:
            locale.setlocale(locale.LC_NUMERIC, saved)


def test_a_compiler_without_int128_keeps_the_other_loops(tmp_path,
                                                        monkeypatch, lib):
    """With __SIZEOF_INT128__ undefined, as a compiler without
    unsigned __int128 has it, the shared object builds and loads with
    run_chunk, run_law and run_samples but no format_rows, and the CSV
    lines are Python's."""
    monkeypatch.setenv("CC", (os.environ.get("CC") or "cc")
                       + " -U__SIZEOF_INT128__")
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    so = native.library()
    assert so is not None and so is not lib
    assert hasattr(so, "run_chunk") and hasattr(so, "run_law")
    assert hasattr(so, "run_samples")
    assert not hasattr(so, "format_rows")
    table = np.array([[0.1, -2.5e-7, 1e300], [np.nan, -0.0, 5e-324]])
    assert mission._format_rows(table).decode() == python_lines(table)


def without_formatter(lib):
    """lib without format_rows: the CSVs take Python's '%'."""
    return SimpleNamespace(run_chunk=lib.run_chunk, run_law=lib.run_law,
                           run_samples=lib.run_samples)


@pytest.mark.parametrize("name", ["scenario_2_5_2", "swarm1", "swarm2",
                                  "scenario_4_2_2"])
def test_artifacts_do_not_depend_on_the_formatter(tmp_path, monkeypatch,
                                                  compiled, name):
    """particle.csv of 2_5_2 and of the benchmark's two swarms, and
    4_2_2's particle.csv and three quad CSVs, flown in this process,
    written through format_rows and through Python's '%'. Many of the
    quad CSVs' numbers lie below 1e-6, where format_rows calls
    snprintf."""
    cfg = mission_config(tmp_path, name)
    monkeypatch.setattr(mission, "_usable_cpus", lambda: 1)
    calls = []
    counted = SimpleNamespace(
        run_chunk=compiled.run_chunk, run_law=compiled.run_law,
        run_samples=compiled.run_samples,
        format_rows=lambda *a: calls.append(a[1]) or compiled.format_rows(*a))
    monkeypatch.setattr(native, "_lib", counted)
    run_mission(cfg, out_dir=tmp_path / "c")
    monkeypatch.setattr(native, "_lib", without_formatter(compiled))
    run_mission(cfg, out_dir=tmp_path / "py")
    got = sorted((tmp_path / "c" / cfg.out).iterdir())
    assert [p.name for p in got] == sorted(
        p.name for p in (tmp_path / "py" / cfg.out).iterdir())
    rows = 0
    for path in got:
        assert path.read_bytes() == (tmp_path / "py" / cfg.out
                                     / path.name).read_bytes()
        if path.suffix == ".csv":
            rows += path.read_bytes().count(b"\n") - 1
    assert sum(calls) == rows and max(calls) == mission._BLOCK
    if name == "scenario_4_2_2":
        values = np.concatenate([
            np.loadtxt(path, delimiter=",", skiprows=1).ravel()
            for path in got if path.name.startswith("quad_")])
        small = np.abs(values[values != 0.0]) < 1e-6
        assert 0.2 < small.mean() < 0.4
