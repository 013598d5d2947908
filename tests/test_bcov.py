"""Ambiguity index bookkeeping and the two closed-form solves.

The gap solve is one composition in s = 1/Y; the Castelnuovo solve is a
binomial inversion of the low-degree data.  Both are checked against round
trips through ``assemble_fg`` and a binomial expansion, up to the paper's
g = 53, and the gap solve against the Lagrange-Buermann loop it replaced.
The closed-form resolution plan is checked against the degree-by-degree
loop it replaced, and at a genus that loop could not reach.
"""

from __future__ import annotations

import json
import random
import re
import time
from fractions import Fraction
from operator import mul

import pytest

from curvecount.bcov import (
    ConifoldFrame,
    HolomorphicAmbiguity,
    assemble_fg,
    castelnuovo_indices,
    castelnuovo_solve,
    first_open_genus,
    gap_indices,
    gap_solve,
    gap_target,
    regularity_indices,
    resolution_plan,
)
from curvecount.bernoulli import bernoulli
from curvecount.bounds import bps_threshold, extremal_gv, max_vanishing_degree
from curvecount.cli import main
from curvecount.series import (
    LaurentSeries,
    WindowError,
    _miller,
    _numerators,
    series_compose,
    series_invert,
    series_reversion,
)

F = Fraction


def test_regularity_indices():
    assert list(regularity_indices(2)) == [0, 1]
    assert list(regularity_indices(4)) == [0, 1, 2]
    for g in range(2, 61):
        count = (g - 1) - (len(regularity_indices(g)) - 1)
        assert count == (2 * g - 2) // 5 == len(castelnuovo_indices(g))


def test_index_partition_count():
    for g in range(2, 61):
        total = len(regularity_indices(g)) + len(castelnuovo_indices(g)) \
            + len(gap_indices(g))
        assert total == 3 * g - 2
        assert len(gap_indices(g)) == 2 * g - 2


def test_toy_frame_y():
    frame = ConifoldFrame.toy(12)
    y = frame.y_of_flat
    assert y.min_exp == -1 and y.coefficient(-1) == 1
    # Delta := delta gives Y = 1/Delta + 1 exactly
    assert y.coefficient(0) == 1
    assert all(y.coefficient(k) == 0 for k in range(1, y.trunc_order + 1))


def test_frame_json_round_trip():
    frame = ConifoldFrame.toy(10)
    d = frame.to_json_dict()
    back = ConifoldFrame.from_json_dict(d)
    assert back.y_of_flat == frame.y_of_flat
    d["Y_of_Delta"]["coeffs"][0] = "2"
    with pytest.raises(ValueError):
        ConifoldFrame.from_json_dict(d)


def test_frame_rejects_bad_flat_coordinate():
    with pytest.raises(ValueError):
        ConifoldFrame(LaurentSeries.one("q", 1),
                      LaurentSeries.monomial("delta", 1, 2, 8))


def test_gap_solve_toy_genus_two():
    frame = ConifoldFrame.toy(12)
    known = LaurentSeries.zero("Delta", 0)
    values = gap_solve(2, known, frame)
    assert values == {3: F(1, 240), 2: F(-1, 120)}
    # a_3 = -B_4/8 via the target normalization
    assert values[3] == -bernoulli(4) / 8 == gap_target(2)


def test_gap_solve_round_trip():
    rng = random.Random(42)
    frame = ConifoldFrame.toy(30)
    for g in range(2, 7):
        chosen = {i: F(rng.randint(-50, 50), rng.randint(1, 7))
                  for i in gap_indices(g)}
        assembled = assemble_fg(
            {i - (g - 1): c for i, c in chosen.items()}, frame.y_of_flat)
        target = LaurentSeries.monomial("Delta", -(2 * g - 2), gap_target(g), 0)
        known = target - assembled
        recovered = gap_solve(g, known, frame)
        assert recovered == chosen


def test_gap_solve_round_trip_nontrivial_frame():
    # Delta(delta) = delta - delta^2 exercises the reversion/composition
    # chain: Y(Delta) is a genuinely infinite Laurent series here.
    rng = random.Random(88)
    flat = LaurentSeries("delta", 1, [1, -1] + [0] * 22, 24)
    frame = ConifoldFrame(LaurentSeries.one("q", 1), flat)
    y = frame.y_of_flat
    assert y.min_exp == -1 and y.coefficient(-1) == 1
    assert any(y.coefficient(k) for k in range(1, 5))  # not the toy shape
    for g in (2, 3, 5):
        chosen = {i: F(rng.randint(-20, 20), rng.randint(1, 6))
                  for i in gap_indices(g)}
        assembled = assemble_fg(
            {i - (g - 1): c for i, c in chosen.items()}, y)
        target = LaurentSeries.monomial("Delta", -(2 * g - 2), gap_target(g), 0)
        assert gap_solve(g, target - assembled, frame) == chosen


def test_gap_solve_rejects_a_pole_deeper_than_the_gap():
    # 7 Delta^-3 at g = 2: no polynomial of degree 2 in Y can cancel it.
    known = LaurentSeries("Delta", -3, [7, 0, 0, 0], 0)
    with pytest.raises(ValueError, match=r"Delta\^-3"):
        gap_solve(2, known, ConifoldFrame.toy(12))


def test_gap_solve_window_too_small():
    frame = ConifoldFrame.toy(4)
    with pytest.raises(WindowError):
        gap_solve(5, LaurentSeries.zero("Delta", 0), frame)


def test_castelnuovo_solve_toy_two_unknowns():
    # g = 4: K = 1; a + b(1 - 3125q) with data q^0: 3, q^1: -3125*2
    data = [F(3), F(-3125 * 2)]
    known = LaurentSeries.zero("q", 1)
    res = castelnuovo_solve(4, known, 1, data)
    assert res.closed
    assert res.values == {3: F(1), 2: F(2)}  # a_{g-1} = 1, a_{g-2} = 2


def test_castelnuovo_solve_round_trip():
    from math import comb

    rng = random.Random(7)
    for g in [*range(2, 7), 51, 52, 53]:
        K = (2 * (g - 1)) // 5
        chosen = {g - 1 - k: F(rng.randint(-9, 9), rng.randint(1, 5))
                  for k in range(K + 1)}
        # oracle: expand sum_k a_{g-1-k} (1 - 3125 q)^k by binomials
        data = [sum(chosen[g - 1 - k] * comb(k, j) * F(-3125) ** j
                    for k in range(j, K + 1))
                for j in range(K + 1)]
        res = castelnuovo_solve(g, LaurentSeries.zero("q", K), K, data)
        assert res.closed and res.values == chosen


@pytest.mark.parametrize("known, Dg, data", [
    (LaurentSeries.zero("Delta", 1), 1, [F(3), F(-6250)]),
    (LaurentSeries.zero("q", 1), -1, []),
], ids=["series_in_Delta", "negative_Dg"])
def test_castelnuovo_solve_rejects_bad_inputs(known, Dg, data):
    with pytest.raises(ValueError):
        castelnuovo_solve(4, known, Dg, data)


def test_castelnuovo_solve_deficit_reports_unresolved():
    res = castelnuovo_solve(51, LaurentSeries.zero("q", 25), 19,
                            [F(0)] * 26)
    assert not res.closed
    assert res.E == 19 and res.K == 20
    assert res.missing_degrees == range(20, 21)
    assert list(res.unresolved) == [51 - 1 - 20]
    assert res.values == {}


def test_assemble_fg():
    y = ConifoldFrame.toy(10).y_of_flat
    assert assemble_fg({}, y).is_zero
    assert assemble_fg({3: F(1)}, y) == y ** 3
    amb = HolomorphicAmbiguity.blank(2)
    amb = amb.with_values({2: F(1), 3: F(0)}, "supplied")
    assert None not in amb.coeffs
    assert assemble_fg(dict(enumerate(amb.coeffs)), y) == y ** 2


def test_assemble_fg_never_takes_an_unknown_as_zero():
    y = ConifoldFrame.toy(10).y_of_flat
    with pytest.raises(ValueError, match=r"a_0 is unknown"):
        assemble_fg({0: None, 1: F(1)}, y)
    with pytest.raises(ValueError, match=r"a_3 is unknown"):
        assemble_fg(dict(enumerate(HolomorphicAmbiguity.blank(3).coeffs)), y)


def test_resolution_plan_statuses():
    for g in range(2, 51):
        plan = resolution_plan(g)
        assert plan.status == "closed", g
    p51 = resolution_plan(51)
    assert p51.status == "conditional"
    assert p51.supplements == ((20, 175),)
    assert resolution_plan(52).status == "closed"
    assert resolution_plan(53).status == "closed"
    p54 = resolution_plan(54)
    assert p54.status == "open"
    assert p54.missing_degrees == range(21, 22)


def reference_max_vanishing_degree(g: int) -> int:
    """D(g) by the degree loop bounds ran before its closed form."""
    d = 0
    while bps_threshold(d + 1) < g:
        d += 1
    return d


def reference_plan(g: int) -> tuple:
    """(status, supplements, K, E, missing) by the degree-by-degree loop
    resolution_plan ran before its closed form."""
    K = len(castelnuovo_indices(g))
    E = min(reference_max_vanishing_degree(g), K)
    missing = tuple(range(E + 1, K + 1))
    supplements = []
    feasible = True
    for d in missing:
        if d % 5 == 0 and bps_threshold(d) == g:
            supplements.append((d, extremal_gv(d // 5)))
        else:
            feasible = False
    if not missing:
        status = "closed"
    elif feasible:
        status = "conditional"
    else:
        status = "open"
    return status, tuple(supplements), K, E, missing


def test_resolution_plan_matches_the_reference_loop():
    for g in range(2, 2001):
        plan = resolution_plan(g)
        assert (plan.status, plan.supplements, plan.K, plan.E,
                tuple(plan.missing_degrees)) == reference_plan(g), g


def test_max_vanishing_degree_matches_the_reference_loop():
    # B(d + 1) < g is monotone in g, so the loop may resume where it ended
    # for g - 1: d then takes exactly the value the loop from 0 reaches.
    d = 0
    for g in range(1, 10 ** 5 + 1):
        while bps_threshold(d + 1) < g:
            d += 1
        assert max_vanishing_degree(g) == d, g
    assert reference_max_vanishing_degree(10 ** 5) == d


def _within_a_second(run):
    start = time.perf_counter()
    value = run()
    assert time.perf_counter() - start < 1.0
    return value


def test_resolution_plan_at_a_huge_genus():
    plan = _within_a_second(lambda: resolution_plan(10 ** 8))
    assert plan.status == "open"
    assert plan.K == len(plan.castelnuovo) == (2 * 10 ** 8 - 2) // 5


def test_bcov_plan_cli_at_a_huge_genus(tmp_path):
    out = tmp_path / "plan.json"
    rc = _within_a_second(lambda: main(
        ["bcov", "plan", "--g", "100000000", "--out", str(out)]))
    assert rc == 0
    assert out.stat().st_size < 1024
    plan = json.loads(out.read_text())
    assert plan["status"] == "open"
    assert plan["indices"]["fixed_gap"] == {"start": 10 ** 8,
                                            "stop": 3 * 10 ** 8 - 2}


def test_plan_and_castelnuovo_solve_past_a_machine_word():
    # len() of these ranges overflows a C ssize_t; K is the closed form
    for g in range(2, 3000):
        assert resolution_plan(g).K == len(castelnuovo_indices(g)) == \
            castelnuovo_solve(g, LaurentSeries.zero("q", 0), 0, [F(0)]).K, g
    g = 10 ** 22
    K = (2 * g - 2) // 5
    plan = _within_a_second(lambda: resolution_plan(g))
    assert plan.status == "open" and plan.supplements == ()
    assert plan.K == K and plan.castelnuovo == range(g - K, g)
    assert plan.missing_degrees == range(plan.E + 1, K + 1)
    res = castelnuovo_solve(g, LaurentSeries.zero("q", 2), 2, [F(0)] * 3)
    assert not res.closed and res.values == {}
    assert (res.E, res.K) == (2, K)
    assert res.missing_degrees == range(3, K + 1)
    assert res.unresolved == range(g - 4, g - 2 - K, -1)


def test_bcov_plan_cli_past_a_machine_word(tmp_path, capsys):
    out = tmp_path / "plan.json"
    rc = main(["bcov", "plan", "--g", str(10 ** 22), "--out", str(out)])
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["status"] == "open"


def test_first_open_genus():
    assert _within_a_second(first_open_genus) == 54


def test_resolution_plan_genus_five():
    plan = resolution_plan(5)
    assert plan.status == "closed"
    assert len(plan.castelnuovo) == 1  # floor(8/5)
    assert plan.K == 1


def test_ambiguity_json():
    amb = HolomorphicAmbiguity.blank(2).with_values({2: F(-1, 120)}, "fixed-gap")
    d = amb.to_json_dict()
    assert d["g"] == 2
    by_index = {e["index"]: e for e in d["coefficients"]}
    assert by_index[0]["status"] == "fixed-regularity"
    assert by_index[2]["value"] == "-1/120"
    assert by_index[3]["value"] is None


def _dense_frame(seed: int, trunc: int) -> ConifoldFrame:
    """Frame with a seeded dense Delta(delta) = delta + sum c_k delta^k."""
    rng = random.Random(seed)
    flat = [1] + [F(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(2, trunc + 1)]
    return ConifoldFrame(LaurentSeries.one("q", 1),
                         LaurentSeries("delta", 1, flat, trunc))


def test_y_is_the_inverse_of_delta_over_one_plus_delta():
    # Oracle: the composition definition Y^{-1} = (u/(1+u)) o delta(Delta).
    for frame in (ConifoldFrame.toy(14), _dense_frame(5, 14)):
        flat = frame.delta_to_flat
        T = flat.trunc_order
        u_over_one_plus_u = LaurentSeries(
            "delta", 1, [F((-1) ** (k - 1)) for k in range(1, T + 1)], T)
        y = series_invert(series_compose(u_over_one_plus_u,
                                         series_reversion(flat)))
        assert frame.y_of_flat == LaurentSeries("Delta", y.min_exp, y.coeffs,
                                                y.trunc_order)


def test_gap_solve_round_trip_at_the_paper_genera():
    # The paper's gap solves at g = 51..53 need a Y window of about 104.
    rng = random.Random(53)
    frame = _dense_frame(11, 104)
    y = frame.y_of_flat
    for g in (51, 53):
        chosen = {i: F(rng.randint(-20, 20), rng.randint(1, 6))
                  for i in gap_indices(g)}
        assembled = assemble_fg(
            {i - (g - 1): c for i, c in chosen.items()}, y)
        target = LaurentSeries.monomial("Delta", -(2 * g - 2), gap_target(g), 0)
        assert gap_solve(g, target - assembled, frame) == chosen


def test_gap_solve_leaves_the_frame_unchanged():
    rng = random.Random(25)
    frame = _dense_frame(11, 48)
    before = (frame.to_json_dict(), repr(frame))
    for g in (25, 23, 24):
        known = LaurentSeries(
            "Delta", -(2 * g - 2),
            [F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(2 * g - 1)],
            0)
        fresh = ConifoldFrame.from_json_dict(frame.to_json_dict())
        assert gap_solve(g, known, frame) == gap_solve(g, known, fresh)
    assert (frame.to_json_dict(), repr(frame)) == before
    assert frame == ConifoldFrame.from_json_dict(before[0])


def reference_gap_solve(g: int, known_terms: LaurentSeries,
                        frame: ConifoldFrame) -> dict[int, Fraction]:
    """The Lagrange-Buermann loop gap_solve ran before s = 1/Y: with
    Y = Delta^{-1} u(Delta),
    x_i = (1/i) sum_{j=i}^{w} j r_j [Delta^{j-i}] u^{-i},
    one Miller recurrence per u^{-i}."""
    width = 2 * g - 2
    y = frame.y_of_flat
    jr = [-j * known_terms.coefficient(-j) for j in range(1, width + 1)]
    jr[-1] += width * gap_target(g)
    jr, den = _numerators(jr)  # jr[j - 1] / den = j r_j
    x = {}
    for i in range(1, width + 1):
        c, dc = _numerators(
            _miller(y.coeffs, 1 - i, -1, y.coeffs[0] ** -i, width - i + 1))
        x[i + g - 1] = Fraction(sum(map(mul, jr[i - 1:], c)), den * dc * i)
    return x


def test_gap_solve_matches_the_lagrange_buermann_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [2, 3, 5, 7, 11, 13, 2 ** 31 - 1, 10 ** 9 + 7]
    values = st.one_of(st.just(F(0)), st.builds(
        F, st.integers(-10 ** 12, 10 ** 12), st.sampled_from(primes)))

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.integers(2, 8), st.integers(0, 4), st.data())
    def check(g, extra, data):
        width = 2 * g - 2
        trunc = width + extra  # the gap needs Delta(delta) through delta^w
        flat = [1] + data.draw(st.lists(values, min_size=trunc - 1,
                                        max_size=trunc - 1))
        frame = ConifoldFrame(LaurentSeries.one("q", 1),
                              LaurentSeries("delta", 1, flat, trunc))
        lo = data.draw(st.integers(-width, 1))
        known = LaurentSeries("Delta", lo, data.draw(st.lists(
            values, min_size=1 - lo, max_size=1 - lo)), 0)
        assert gap_solve(g, known, frame) == \
            reference_gap_solve(g, known, frame)
        short = ConifoldFrame(frame.delta_of_q,
                              frame.delta_to_flat.truncate(width - 1))
        with pytest.raises(WindowError,
                           match=rf"need Delta\(delta\) trunc >= {width} "):
            gap_solve(g, known, short)

    check()


def _frame_dict_without_y(seed: int, trunc: int) -> dict:
    d = _dense_frame(seed, trunc).to_json_dict()
    del d["Y_of_Delta"]
    return d


def test_load_and_gap_solve_never_revert(monkeypatch):
    import curvecount.bcov
    import curvecount.series

    calls = []

    def counting(m):
        calls.append(m)
        return series_reversion(m)

    plain = _frame_dict_without_y(11, 48)
    stated = ConifoldFrame.from_json_dict(plain).to_json_dict()
    rng = random.Random(25)
    known = {g: LaurentSeries("Delta", -(2 * g - 2), [
        F(rng.randint(-60, 60), rng.randint(1, 9))
        for _ in range(2 * g - 1)], 0) for g in (23, 24, 25)}
    monkeypatch.setattr(curvecount.bcov, "series_reversion", counting)
    monkeypatch.setattr(curvecount.series, "series_reversion", counting)
    for d in (plain, stated):
        frame = ConifoldFrame.from_json_dict(d)
        for g, terms in known.items():
            gap_solve(g, terms, frame)
        assert "y_of_flat" not in vars(frame)
    assert calls == []
    y = frame.y_of_flat  # derived once, then kept
    assert frame.y_of_flat is y and len(calls) == 1


def test_reading_y_changes_no_frame_value():
    d = _frame_dict_without_y(5, 20)
    frame = ConifoldFrame.from_json_dict(d)
    twin = ConifoldFrame.from_json_dict(d)
    before = repr(frame)
    assert "y_of_flat" not in before
    frame.y_of_flat
    assert repr(frame) == before == repr(twin)
    assert frame == twin and twin == frame and hash(frame) == hash(twin)
    assert "y_of_flat" not in vars(twin)
    assert frame.to_json_dict() == twin.to_json_dict() \
        == ConifoldFrame.from_json_dict(frame.to_json_dict()).to_json_dict()


def reference_y(frame: ConifoldFrame) -> LaurentSeries:
    """Y = 1/delta(Delta) + 1 by reversion and inversion, on [-1, T-2]."""
    inv = series_invert(series_reversion(frame.delta_to_flat))
    return LaurentSeries("Delta", inv.min_exp, inv.coeffs, inv.trunc_order) \
        + LaurentSeries.from_dict("Delta", {0: 1}, inv.trunc_order)


def reference_stated_y_ok(frame: ConifoldFrame, stated: LaurentSeries) -> bool:
    """The check from_json_dict made by deriving Y: equality with the
    derived Y on the common window."""
    y = reference_y(frame)
    derived = y.truncate(min(stated.trunc_order, y.trunc_order))
    return stated.truncate(derived.trunc_order) == derived


def _accepts(frame: ConifoldFrame, stated: LaurentSeries) -> bool:
    d = {"delta_of_q": frame.delta_of_q.to_json_dict(),
         "Delta_of_delta": frame.delta_to_flat.to_json_dict(),
         "Y_of_Delta": stated.to_json_dict()}
    try:
        ConifoldFrame.from_json_dict(d)
    except ValueError as exc:
        assert str(exc) == "stated Y_of_Delta disagrees with the frame"
        return False
    return True


def test_stated_y_cases():
    frame = _dense_frame(5, 14)
    y = frame.y_of_flat  # on [-1, 12]
    extended = LaurentSeries("Delta", -1, list(y.coeffs) + [F(9), F(-2)], 14)
    wrong = list(y.coeffs)
    wrong[7] += F(1, 3)
    cases = {
        "exact": (y, True),
        "shorter": (y.truncate(4), True),
        "only the pole": (y.truncate(-1), True),
        "empty window below the pole": (LaurentSeries.zero("Delta", -3), True),
        "longer": (extended, True),
        "wrong coefficient": (LaurentSeries("Delta", -1, wrong, 12), False),
        "pole below Delta^-1": (LaurentSeries("Delta", -2, [F(1, 7)], -2)
                                + extended, False),
        "no pole": (LaurentSeries("Delta", 0, y.coeffs[1:], 12), False),
        "zero": (LaurentSeries.zero("Delta", 12), False),
        "wrong variable": (LaurentSeries("delta", -1, y.coeffs, 12), False),
    }
    for name, (stated, ok) in cases.items():
        assert reference_stated_y_ok(frame, stated) == ok, name
        assert _accepts(frame, stated) == ok, name


def test_stated_y_check_matches_the_derived_y_check():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    values = st.one_of(st.just(F(0)), st.builds(
        F, st.integers(-9, 9), st.integers(1, 6)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 9), st.data())
    def check(T, data):
        flat = [1] + data.draw(st.lists(values, min_size=T - 1, max_size=T - 1))
        frame = ConifoldFrame(LaurentSeries.one("q", 1),
                              LaurentSeries("delta", 1, flat, T))
        y = reference_y(frame)  # Y's coefficients, then arbitrary values
        trunc = data.draw(st.integers(-4, T + 2))
        lo = data.draw(st.integers(min(-3, trunc + 1), trunc + 1))
        cs = [y.coefficient(e) if e <= y.trunc_order else data.draw(values)
              for e in range(lo, trunc + 1)]
        if cs and data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(cs) - 1))
            cs[k] += data.draw(st.sampled_from([F(1), F(-1, 2), F(3, 7)]))
        var = data.draw(st.sampled_from(["Delta", "Delta", "Delta", "delta"]))
        stated = LaurentSeries(var, lo, cs, trunc)
        assert _accepts(frame, stated) == reference_stated_y_ok(frame, stated)

    check()


def test_frame_shared_across_threads():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(8)
    genera = list(range(2, 12))
    known = {g: LaurentSeries("Delta", -(2 * g - 2),
                              [F(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(2 * g - 1)], 0)
             for g in genera}
    want = {g: gap_solve(g, known[g], _dense_frame(3, 24)) for g in genera}
    frame = _dense_frame(3, 24)
    orders = [genera[k:] + genera[:k] for k in range(0, 10, 2)]
    orders += [list(reversed(order)) for order in orders]

    def solve_all(order):
        return [(g, gap_solve(g, known[g], frame)) for g in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [pool.submit(solve_all, order) for order in orders]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        for g, values in result:
            assert values == want[g]


@pytest.mark.parametrize("make, error, message", [
    (lambda: HolomorphicAmbiguity.blank(1), ValueError,
     "ambiguity solves start at genus 2"),
    (lambda: HolomorphicAmbiguity(2, (None,) * 3, ("unknown",) * 4),
     ValueError, "need exactly 4 coefficient slots"),
    (lambda: gap_solve(2, LaurentSeries("Delta", -2, [1], -2),
                       ConifoldFrame.toy(12)),
     WindowError, "known terms must be known through Delta^{-1}"),
    (lambda: gap_solve(2, LaurentSeries.zero("q", 0), ConifoldFrame.toy(12)),
     ValueError, "known terms must be a series in the flat coordinate"),
    (lambda: castelnuovo_solve(5, LaurentSeries.zero("q", 5), 5, []),
     ValueError, "need degree data through q^1"),
    (lambda: castelnuovo_solve(5, LaurentSeries.zero("q", 0), 5, [0] * 6),
     WindowError, "known polynomial must be known through q^1"),
], ids=["blank_genus_1", "slot_count", "known_below_delta_minus_1",
        "known_not_in_delta", "too_little_data", "known_window_too_short"])
def test_input_checks_name_the_problem(make, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        make()
