"""LP suite: polytope enumeration oracles, feasibility, fractions, negativity."""

import math
from fractions import Fraction
from itertools import combinations, product
from random import Random
from unittest.mock import patch

import numpy as np
import pytest
from scipy.optimize import linprog

from contextua import linalg, noncontextuality
from contextua.core_model import (
    EmpiricalModel,
    GptFragment,
    submodel,
    OperationalEquivalence,
    effect_equivalences,
    probability,
    state_equivalences,
)
from contextua.disturbance import fractions_with_disturbance
from contextua.lp import LinearProgram
from contextua.noncontextuality import (
    DisturbingModelError,
    FractionReport,
    Limits,
    ScaleCapError,
    assert_nondisturbing,
    contextual_fraction,
    fraction_via_connection,
    minimal_negativity,
    noncontextual_lp,
    response_vertices,
)
from contextua.scenarios import (
    SCENARIOS,
    chsh_quantum,
    classical_simplex,
    gbit,
    halving_fragment,
    kcbs_quantum,
    noisy_pr_fragment,
    pr_box,
    pr_box_fragment,
    product_model,
    qubit_fragment,
    random_acyclic_hypergraph,
    random_fragment,
    random_nondisturbing_model,
    two_party_model_from_fragment,
)
from contextua.vorobyev import CompatibilityHypergraph, is_acyclic
from test_lp import programs_solved_by

# -- expensive shared results ------------------------------------------------


@pytest.fixture(scope="module")
def pr_results():
    f = pr_box_fragment()
    lp = noncontextual_lp(f)
    neg = minimal_negativity(f)
    return f, lp, neg


@pytest.fixture(scope="module")
def noisy_results():
    half = noisy_pr_fragment(Fraction(1, 2))
    strong = noisy_pr_fragment(Fraction(3, 4))
    return {
        "half": (half, noncontextual_lp(half)),
        "strong": (strong, noncontextual_lp(strong), minimal_negativity(strong)),
    }


def mix_models(t, m1, m2):
    tables = tuple(
        tuple(t * a + (1 - t) * b for a, b in zip(t1, t2))
        for t1, t2 in zip(m1.tables, m2.tables)
    )
    return EmpiricalModel(m1.hypergraph, dict(m1.outcomes), tables)


# -- response polytope -------------------------------------------------------


def test_one_binary_measurement_gives_a_segment():
    polytope = response_vertices(classical_simplex(2))
    assert polytope.status == "ok"
    assert polytope.vertices == (
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    )


def test_two_uncoupled_measurements_give_four_deterministic_vertices():
    f = qubit_fragment(axes=[(1, 0, 0), (0, 1, 0)])
    polytope = response_vertices(f)
    assert len(polytope.vertices) == 4
    for vertex in polytope.vertices:
        assert set(vertex) <= {Fraction(0), Fraction(1)}
        assert vertex[0] + vertex[1] == 1 and vertex[2] + vertex[3] == 1


def _constraint_rows(f, eqs):
    """Reference equality system, built independently of
    ``response_vertices``: one normalization row per measurement, then one
    row per dependence with the unit effect's term (index n) moved to the
    right-hand side.  In the ``_polytope`` key format."""
    n = len(f.effects)
    equalities = []
    for meas in f.measurements:
        row = [Fraction(0)] * n
        for r in meas:
            row[r] += 1
        equalities.append((tuple(row), Fraction(1)))
    for eq in eqs:
        row = [Fraction(0)] * n
        rhs = Fraction(0)
        for r, c in eq.coefficients.items():
            if r == n:
                rhs -= c
            else:
                row[r] += c
        equalities.append((tuple(row), rhs))
    return tuple(equalities)


def _reference_polytope(f, eqs=None):
    if eqs is None:
        eqs = effect_equivalences(f, include_unit=True)
    return noncontextuality._polytope(_constraint_rows(f, eqs), len(f.effects))


def _brute_force_vertices(f, eqs):
    """Independent enumeration: solve every equality system obtained by
    clamping a maximal independent set of box bounds, keep feasible points."""
    n = len(f.effects)
    equalities = _constraint_rows(f, eqs)
    matrix = [row for row, _ in equalities]
    nullity = len(linalg.nullspace(matrix))
    bounds = [(r, v) for r in range(n) for v in (Fraction(0), Fraction(1))]
    found = set()
    for subset in combinations(bounds, nullity):
        rows = [list(row) for row, _ in equalities]
        rhs = [b for _, b in equalities]
        for r, v in subset:
            rows.append([Fraction(int(j == r)) for j in range(n)])
            rhs.append(v)
        if linalg.nullspace(rows):
            continue  # not a point
        point = linalg.solve(rows, rhs)
        if point is None:
            continue
        if all(0 <= x <= 1 for x in point):
            ok = all(
                sum(c * x for c, x in zip(row, point)) == b
                for row, b in equalities
            )
            if ok:
                found.add(tuple(point))
    return found


@pytest.mark.parametrize(
    "fragment",
    [gbit(), halving_fragment(), qubit_fragment()]
    + [random_fragment(Random(k)) for k in (0, 6, 9, 10)],
    ids=["gbit", "halving", "qubit", "random0", "random6", "random9", "random10"],
)
def test_vertices_match_brute_force_enumeration(fragment):
    eqs = effect_equivalences(fragment, include_unit=True)
    polytope = response_vertices(fragment)
    assert set(polytope.vertices) == _brute_force_vertices(fragment, eqs)
    for vertex in polytope.vertices:
        assert all(0 <= x <= 1 for x in vertex)
        for coeffs, rhs in _constraint_rows(fragment, eqs):
            assert sum(c * x for c, x in zip(coeffs, vertex)) == rhs


@pytest.mark.parametrize(
    "fragment", [gbit(), halving_fragment(), qubit_fragment()], ids=["gbit", "halving", "qubit"]
)
def test_vertex_lists_are_irredundant(fragment):
    vertices = response_vertices(fragment).vertices
    for i, v in enumerate(vertices):
        others = [u for j, u in enumerate(vertices) if j != i]
        a_eq = np.vstack(
            [np.array(others, dtype=float).T, np.ones(len(others))]
        )
        b_eq = np.append(np.array(v, dtype=float), 1.0)
        result = linprog(
            np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq,
            bounds=[(0, None)] * len(others), method="highs",
        )
        assert not result.success  # no convex combination reproduces a vertex


def test_empty_verdicts_cover_both_failure_modes():
    f = halving_fragment()
    unit = len(f.effects)
    clash = [
        OperationalEquivalence("effect", {0: Fraction(1)}),
        OperationalEquivalence("effect", {0: Fraction(1), unit: Fraction(1)}),
    ]
    polytope = _reference_polytope(f, clash)
    assert polytope.is_empty and polytope.vertices == ()

    outside = [OperationalEquivalence("effect", {0: Fraction(1), unit: Fraction(-2)})]
    polytope = _reference_polytope(f, outside)
    assert polytope.is_empty  # equalities consistent, box unreachable

    # nullity 0: e0 = 1 and e2 = 1/2 leave exactly one point, inside the box
    pinned = [
        OperationalEquivalence("effect", {0: Fraction(1), unit: Fraction(-1)}),
        OperationalEquivalence("effect", {2: Fraction(1), unit: Fraction(-1, 2)}),
    ]
    polytope = _reference_polytope(f, pinned)
    half = Fraction(1, 2)
    assert polytope.status == "ok"
    assert polytope.vertices == ((Fraction(1), Fraction(0), half, half),)


def test_no_equalities_leave_the_whole_unit_cube():
    """No measurement and no effect dependence: every coordinate is free."""
    f = GptFragment(
        dimension=2,
        states=((1, 0), (0, 1)),
        effects=((1, 0),),
        unit_effect=(1, 1),
        measurements=(),
    )
    assert effect_equivalences(f, include_unit=True) == []
    polytope = response_vertices(f)
    assert polytope.status == "ok"
    assert polytope.vertices == ((Fraction(0),), (Fraction(1),))


def _permuted(f, perm):
    """f with effect i taken from effect perm[i], measurements relabelled."""
    inverse = {old: new for new, old in enumerate(perm)}
    return GptFragment(
        dimension=f.dimension,
        states=f.states,
        effects=tuple(f.effects[old] for old in perm),
        unit_effect=f.unit_effect,
        measurements=tuple(
            tuple(inverse[r] for r in meas) for meas in f.measurements
        ),
        transformations=f.transformations,
    )


@pytest.mark.parametrize(
    "fragment",
    [gbit(), halving_fragment(), qubit_fragment()]
    + [random_fragment(Random(k)) for k in (0, 6, 9, 10)]
    + [pr_box_fragment()],
    ids=["gbit", "halving", "qubit", "random0", "random6", "random9", "random10", "pr"],
)
def test_vertices_do_not_depend_on_the_effect_order(fragment):
    """A permutation changes which coordinates are free, hence the cube the
    enumeration seeds on and the cuts it makes, but not the polytope."""
    original = set(response_vertices(fragment).vertices)
    rng = Random(len(fragment.effects))
    for _ in range(2):
        perm = list(range(len(fragment.effects)))
        rng.shuffle(perm)
        permuted = response_vertices(_permuted(fragment, perm)).vertices
        inverse = {old: new for new, old in enumerate(perm)}
        mapped_back = {
            tuple(v[inverse[r]] for r in range(len(perm))) for v in permuted
        }
        assert len(mapped_back) == len(permuted)
        assert mapped_back == original


def test_pr_fragment_vertices_are_the_no_signalling_boxes():
    """Effect 4 * (2x + y) + 2i + j holds p(i, j | x, y): the valuations of
    the PR fragment are the 16 deterministic and 8 extremal correlated boxes."""
    bits = list(product(range(2), repeat=2))
    deterministic = {
        tuple(
            Fraction(int(i == a[x] and j == b[y]))
            for x, y in bits
            for i, j in bits
        )
        for a in bits
        for b in bits
    }
    correlated = {
        tuple(
            Fraction(1, 2) if i ^ j == x * y ^ alpha * x ^ beta * y ^ gamma else Fraction(0)
            for x, y in bits
            for i, j in bits
        )
        for alpha, beta, gamma in product(range(2), repeat=3)
    }
    assert len(deterministic) == 16 and len(correlated) == 8
    expected = tuple(sorted(deterministic | correlated))
    assert response_vertices(pr_box_fragment()).vertices == expected


def test_scale_caps_raise_early():
    wide = classical_simplex(21)
    with pytest.raises(ScaleCapError):
        response_vertices(wide)
    # 8 axes give 16 effects, which with the unit span 4 dimensions
    many = qubit_fragment(axes=[_direction([1, k, k * k]) for k in range(8)])
    assert len(effect_equivalences(many, include_unit=True)) == 13
    with pytest.raises(ScaleCapError, match="13 equivalences"):
        response_vertices(many)


def test_the_widest_simplex_under_the_cap_gives_its_unit_vectors():
    """classical_simplex(20) has 19 free coordinates but only 20 vertices,
    which the simplex seed finds without visiting the cube's 2**19 corners."""
    noncontextuality._polytope.cache_clear()
    vertices = response_vertices(classical_simplex(20)).vertices
    units = {tuple(Fraction(int(i == j)) for j in range(20)) for i in range(20)}
    assert len(vertices) == 20 and set(vertices) == units


@pytest.mark.parametrize("dim", range(5))
def test_with_no_cut_the_enumeration_gives_the_cube_corners(dim):
    corners = noncontextuality._cut_vertices(dim, [])
    assert sorted(corners) == sorted(product((Fraction(0), Fraction(1)), repeat=dim))
    assert all(type(x) is Fraction for corner in corners for x in corner)


def test_a_noise_sweep_enumerates_its_polytope_once(monkeypatch):
    """The polytope depends on the effects alone, so every weight of the
    noisy extremal box reuses the first weight's enumeration."""
    noncontextuality._polytope.cache_clear()
    calls = []
    enumerate_cut = noncontextuality._cut_vertices

    def counting(dim, extras):
        calls.append(dim)
        return enumerate_cut(dim, extras)

    monkeypatch.setattr(noncontextuality, "_cut_vertices", counting)
    full = response_vertices(noisy_pr_fragment(1))
    half = response_vertices(noisy_pr_fragment(Fraction(1, 2)))
    assert len(calls) == 1
    assert half == full and len(full.vertices) == 24


def test_the_memo_keys_on_the_equivalences():
    f = halving_fragment()
    assert len(_reference_polytope(f).vertices) == 2
    assert len(_reference_polytope(f, []).vertices) == 4
    assert len(_reference_polytope(f).vertices) == 2


def _direction(v):
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _seeded_qubit_fragments(pairs, axes, count):
    rng = Random(10 * pairs + axes)
    fragments = []
    for _ in range(count):
        points = []
        for _ in range(pairs):
            u = _direction([rng.gauss(0, 1) for _ in range(3)])
            points += [u, [-x for x in u]]
        directions = [
            _direction([rng.gauss(0, 1) for _ in range(3)]) for _ in range(axes)
        ]
        fragments.append(qubit_fragment(points, directions))
    return fragments


def test_measurement_rows_add_nothing_to_the_dependencies():
    """On a valid fragment each measurement row restates the dependence
    sum of its effects minus the unit, so leaving the rows out of the
    system changes no vertex."""
    fragments = [random_fragment(Random(k)) for k in range(300)]
    fragments += [make() for kind, make in SCENARIOS.values() if kind == "fragment"]
    fragments += _seeded_qubit_fragments(2, 3, 3) + _seeded_qubit_fragments(2, 4, 3)
    for f in fragments:
        assert response_vertices(f) == _reference_polytope(f)


@pytest.mark.parametrize("k", range(0, 40, 3))
def test_a_memo_hit_equals_a_cold_enumeration(k):
    noncontextuality._polytope.cache_clear()
    response_vertices(random_fragment(Random(k)))
    hit = response_vertices(random_fragment(Random(k)))
    assert noncontextuality._polytope.cache_info().hits == 1
    noncontextuality._polytope.cache_clear()
    cold = response_vertices(random_fragment(Random(k)))
    assert noncontextuality._polytope.cache_info().hits == 0
    assert hit == cold and repr(hit) == repr(cold)


# -- feasibility LP ----------------------------------------------------------


def _replay_witness(f, solution):
    """Re-verify a feasibility witness against the polytope independently."""
    vertices = response_vertices(f).vertices
    for s in range(len(f.states)):
        total = sum(
            (
                solution.assignment.get(f"mu_{lam}_{s}", Fraction(0))
                for lam in range(len(vertices))
            ),
            Fraction(0),
        )
        assert total == 1
        for r in range(len(f.effects)):
            modelled = sum(
                (
                    vertices[lam][r]
                    * solution.assignment.get(f"mu_{lam}_{s}", Fraction(0))
                    for lam in range(len(vertices))
                ),
                Fraction(0),
            )
            assert modelled == probability(f, s, r)


def test_classical_fragments_are_embeddable():
    for f in (classical_simplex(3), halving_fragment()):
        solution = noncontextual_lp(f)
        assert solution.status == "optimal"
        _replay_witness(f, solution)
    rng = Random(17)
    for _ in range(4):
        f = random_fragment(rng)
        assert noncontextual_lp(f).status == "optimal"


def test_axis_qubit_fragment_is_embeddable():
    solution = noncontextual_lp(qubit_fragment())
    assert solution.status == "optimal"
    _replay_witness(qubit_fragment(), solution)


def test_transformation_fragments_are_rejected():
    f = random_fragment(Random(1), with_transformations=True)
    with pytest.raises(ValueError, match="transformation"):
        noncontextual_lp(f)


def test_gbit_square_is_not_embeddable():
    f = gbit()
    solution = noncontextual_lp(f)
    assert solution.status == "infeasible"
    assert solution.certificate_checks()

    # executable support-pinning argument: certainty states force one
    # vertex each, and the alternating square dependence cannot vanish
    vertices = response_vertices(f).vertices
    pins = []
    for s in range(4):
        allowed = [
            lam
            for lam, xi in enumerate(vertices)
            if all(
                xi[r] == probability(f, s, r)
                for r in range(4)
                if probability(f, s, r) in (0, 1)
            )
        ]
        assert len(allowed) == 1
        pins.append(allowed[0])
    eq = state_equivalences(f)[0]
    for lam in set(pins):
        residual = sum(
            eq.coefficients[s] for s in range(4) if pins[s] == lam
        )
        if residual != 0:
            break
    else:
        raise AssertionError("pinning argument lost its contradiction")


def test_pr_fragment_is_not_embeddable(pr_results):
    f, solution, _ = pr_results
    assert solution.status == "infeasible"
    assert solution.certificate_checks()

    # independent float cross-check on the identical constraint system
    vertices = response_vertices(f).vertices
    n_lam, n_s = len(vertices), len(f.states)
    cols = n_lam * n_s
    col = lambda lam, s: lam * n_s + s
    rows, rhs = [], []
    for s in range(n_s):
        row = np.zeros(cols)
        for lam in range(n_lam):
            row[col(lam, s)] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for eq in state_equivalences(f):
        for lam in range(n_lam):
            row = np.zeros(cols)
            for s, c in eq.coefficients.items():
                row[col(lam, s)] = float(c)
            rows.append(row)
            rhs.append(0.0)
    for r in range(len(f.effects)):
        for s in range(n_s):
            row = np.zeros(cols)
            for lam in range(n_lam):
                row[col(lam, s)] = float(vertices[lam][r])
            rows.append(row)
            rhs.append(float(probability(f, s, r)))
    result = linprog(
        np.zeros(cols), A_eq=np.array(rows), b_eq=np.array(rhs),
        bounds=[(0, None)] * cols, method="highs",
    )
    assert not result.success


def test_noisy_pr_feasibility_threshold(noisy_results):
    half, half_lp = noisy_results["half"]
    assert half_lp.status == "optimal"
    _replay_witness(half, half_lp)
    strong, strong_lp, _ = noisy_results["strong"]
    assert strong_lp.status == "infeasible"
    assert strong_lp.certificate_checks()


def test_witnesses_respect_state_equivalences():
    f = halving_fragment()
    solution = noncontextual_lp(f)
    vertices = response_vertices(f).vertices
    eq = state_equivalences(f)[0]
    for lam in range(len(vertices)):
        residual = sum(
            (
                c * solution.assignment.get(f"mu_{lam}_{s}", Fraction(0))
                for s, c in eq.coefficients.items()
            ),
            Fraction(0),
        )
        assert residual == 0


# -- negativity --------------------------------------------------------------


def test_negativity_anchors(pr_results):
    for f in (classical_simplex(3), halving_fragment()):
        solution, negativity = minimal_negativity(f)
        assert solution.status == "optimal" and negativity == 0

    gbit_solution, gbit_negativity = minimal_negativity(gbit())
    assert gbit_negativity == 1  # regression value

    _, _, (pr_solution, pr_negativity) = pr_results
    assert pr_solution.status == "optimal"
    assert pr_negativity == 1  # regression value


@pytest.mark.parametrize("case", ["gbit", "pr", "noisy"])
def test_negativity_against_scipy(case, request):
    """HiGHS on the same LP, against the exact negativity of gbit, the PR
    fragment (w = 1) and the noisy PR fragment (w = 3/4); the PR values come
    from the module fixtures, so no further exact LP is solved."""
    if case == "gbit":
        f = gbit()
        _, exact = minimal_negativity(f)
    elif case == "pr":
        f, _, (_, exact) = request.getfixturevalue("pr_results")
    else:
        f, _, (_, exact) = request.getfixturevalue("noisy_results")["strong"]
    vertices = response_vertices(f).vertices
    n_lam, n_s = len(vertices), len(f.states)
    cols = 2 * n_lam * n_s  # plus then minus, interleaved per (lam, s)
    pos = lambda lam, s: 2 * (lam * n_s + s)
    rows, rhs = [], []
    for s in range(n_s):
        row = np.zeros(cols)
        for lam in range(n_lam):
            row[pos(lam, s)] = 1.0
            row[pos(lam, s) + 1] = -1.0
        rows.append(row)
        rhs.append(1.0)
    for eq in state_equivalences(f):
        for lam in range(n_lam):
            row = np.zeros(cols)
            for s, c in eq.coefficients.items():
                row[pos(lam, s)] = float(c)
                row[pos(lam, s) + 1] = -float(c)
            rows.append(row)
            rhs.append(0.0)
    for r in range(len(f.effects)):
        for s in range(n_s):
            row = np.zeros(cols)
            for lam in range(n_lam):
                row[pos(lam, s)] = float(vertices[lam][r])
                row[pos(lam, s) + 1] = -float(vertices[lam][r])
            rows.append(row)
            rhs.append(float(probability(f, s, r)))
    cost = np.zeros(cols)
    cost[1::2] = 1.0
    result = linprog(
        cost, A_eq=np.array(rows), b_eq=np.array(rhs),
        bounds=[(0, None)] * cols, method="highs",
    )
    assert result.success
    assert abs(result.fun - float(exact)) < 1e-7


def test_negativity_is_convex_along_the_noisy_family(pr_results, noisy_results):
    _, _, (_, crisp) = pr_results
    _, _, (_, strong) = noisy_results["strong"]
    _, half = minimal_negativity(noisy_pr_fragment(Fraction(1, 2)))
    # states at 3/4 are the even mixture of the 1 and 1/2 families
    assert strong <= (crisp + half) / 2


# -- contextual fraction -----------------------------------------------------


def test_fraction_anchors_pr_and_classical():
    report = contextual_fraction(pr_box())
    assert report.cf == 1 and report.ncf == 0 and report.df == 0
    assert report.p_nc is None
    assert report.p_sc is not None and report.p_sc.tables == pr_box().tables

    h = CompatibilityHypergraph(("a", "b"), (("a", "b"),))
    marginals = {"a": (Fraction(1, 4), Fraction(3, 4)), "b": (Fraction(1), Fraction(0))}
    classical = product_model(h, {"a": 2, "b": 2}, marginals)
    report = contextual_fraction(classical)
    assert report.cf == 0 and report.ncf == 1
    assert report.p_sc is None
    assert report.p_nc.tables == classical.tables


def test_fraction_chsh_quantum_hits_the_tsirelson_gap():
    report = contextual_fraction(chsh_quantum())
    assert abs(float(report.cf) - (math.sqrt(2) - 1)) < 1e-6
    recomposed = mix_models(report.ncf, report.p_nc, report.p_sc)
    assert recomposed.tables == chsh_quantum().tables


def test_fraction_kcbs_quantum_tracks_the_pentagon_gap():
    # the pentagon sum reaches sqrt(5) against a bound of 2 and a ceiling of
    # 5/2, so the contextual part is (sqrt(5) - 2) / (1/2)
    report = contextual_fraction(kcbs_quantum())
    assert abs(float(report.cf) - (2 * math.sqrt(5) - 4)) < 1e-5
    assert report.cf == Fraction(439204, 930249)  # regression value
    recomposed = mix_models(report.ncf, report.p_nc, report.p_sc)
    assert recomposed.tables == kcbs_quantum().tables


def test_fraction_monotone_under_mixing_with_noncontextual():
    box = pr_box()
    rng = Random(11)
    noise = random_nondisturbing_model(
        box.hypergraph, rng, outcomes={m: 2 for m in box.outcomes}
    )
    assert contextual_fraction(noise).cf == 0
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        mixed = contextual_fraction(mix_models(t, box, noise))
        assert mixed.cf <= t * 1


def highs_noncontextual_fraction(m):
    """Largest total weight of global assignments under every table entry,
    as a float LP solved by HiGHS."""
    names = m.hypergraph.measurements
    globals_ = list(product(*(range(m.outcomes[x]) for x in names)))
    rows, rhs = [], []
    for context, table in zip(m.hypergraph.contexts, m.tables):
        local = list(product(*(range(m.outcomes[x]) for x in context)))
        positions = [names.index(x) for x in context]
        for key, value in zip(local, table):
            rows.append(
                [float(tuple(g[p] for p in positions) == key) for g in globals_]
            )
            rhs.append(float(value))
    result = linprog(
        -np.ones(len(globals_)), A_ub=np.array(rows), b_ub=np.array(rhs),
        bounds=(0, None), method="highs",
    )
    assert result.success
    return -result.fun


def pr_cycle(n):
    """Binary n-cycle with uniform marginals, perfectly correlated in every
    context but the last, which is perfectly anticorrelated."""
    names = tuple(f"c{i}" for i in range(n))
    h = CompatibilityHypergraph(names, tuple((names[i], names[(i + 1) % n]) for i in range(n)))
    half, zero = Fraction(1, 2), Fraction(0)
    agree, differ = (half, zero, zero, half), (zero, half, half, zero)
    tables = tuple(agree if i < n - 1 else differ for i in range(n))
    return EmpiricalModel(h, {x: 2 for x in names}, tables)


@pytest.mark.parametrize("seed", range(12))
def test_fraction_of_acyclic_models_against_highs(seed):
    rng = Random(seed)
    h = random_acyclic_hypergraph(rng, max_measurements=6)
    m = random_nondisturbing_model(h, rng, {x: 2 for x in h.measurements})
    report = contextual_fraction(m)
    assert report.cf == 0
    assert abs(float(report.ncf) - highs_noncontextual_fraction(m)) < 1e-7


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("seed", range(6))
def test_fraction_of_cycles_against_highs(n, seed):
    rng = Random(100 * n + seed)
    cycle = pr_cycle(n)
    noise = random_nondisturbing_model(cycle.hypergraph, rng, dict(cycle.outcomes))
    m = mix_models(Fraction(rng.randint(0, 8), 8), noise, cycle)
    report = contextual_fraction(m)
    assert abs(float(report.ncf) - highs_noncontextual_fraction(m)) < 1e-7


def test_fraction_rejects_disturbing_input():
    h = CompatibilityHypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    tables = (
        (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(0), Fraction(0), Fraction(3, 4)),
    )
    m = EmpiricalModel(h, {"a": 2, "b": 2, "c": 2}, tables)
    with pytest.raises(DisturbingModelError, match=r"\('b',\)"):
        contextual_fraction(m)
    with pytest.raises(DisturbingModelError):
        assert_nondisturbing(m)


def global_assignment_report(m):
    """The fraction report of ``m`` from its global-assignment LP, built and
    read here: w_g >= 0 per global assignment g, each table entry capping
    the weight that restricts to it."""
    names = m.hypergraph.measurements
    globals_ = list(product(*(range(m.outcomes[x]) for x in names)))
    lp = LinearProgram("max")
    for g in range(len(globals_)):
        lp.add_variable(f"w{g}", 1)
    lands = []
    for context in m.hypergraph.contexts:
        local = list(product(*(range(m.outcomes[x]) for x in context)))
        positions = [names.index(x) for x in context]
        lands.append([local.index(tuple(g[p] for p in positions)) for g in globals_])
    for table, land in zip(m.tables, lands):
        for k, value in enumerate(table):
            lp.add_constraint({f"w{g}": 1 for g, e in enumerate(land) if e == k}, "<=", value)
    solution = lp.solve()
    masses = []
    for table, land in zip(m.tables, lands):
        mass = [Fraction(0)] * len(table)
        for g, k in enumerate(land):
            mass[k] += solution.assignment[f"w{g}"]
        masses.append(mass)
    remainder = [[p - x for p, x in zip(t, mass)] for t, mass in zip(m.tables, masses)]
    ncf = solution.objective
    return FractionReport(
        ncf, 1 - ncf, Fraction(0), submodel(m, masses, ncf), submodel(m, remainder, 1 - ncf)
    )


@pytest.mark.parametrize("seed", range(30))
def test_acyclic_shortcut_equals_the_global_assignment_lp(seed):
    m = SCENARIOS["random-acyclic-model"][1](seed=seed)
    report = contextual_fraction(m)
    assert (report.ncf, report.p_sc) == (1, None)
    assert report == global_assignment_report(m)
    assert repr(report) == repr(global_assignment_report(m))


def test_acyclic_shortcut_solves_no_lp():
    # 8 measurements, 1296 global assignments: the LP took 37 s
    h = random_acyclic_hypergraph(Random(1), max_measurements=8)
    m = random_nondisturbing_model(h, Random(101))
    assert math.prod(m.outcomes.values()) == 1296

    def refuse(lp):
        raise AssertionError("an acyclic model needs no LP")

    with patch.object(LinearProgram, "solve", refuse):
        report = contextual_fraction(m)
    assert (report.ncf, report.cf, report.df) == (1, 0, 0)
    assert report.p_nc == m and report.p_sc is None


@pytest.mark.parametrize(
    "model",
    [chsh_quantum, kcbs_quantum, pr_box, lambda: pr_cycle(4), lambda: pr_cycle(5)],
    ids=["chsh", "kcbs", "pr-box", "pr-4-cycle", "pr-5-cycle"],
)
def test_cyclic_models_solve_one_fraction_lp(model):
    m = model()
    assert not is_acyclic(m.hypergraph)
    assert len(programs_solved_by(contextual_fraction, m)) == 1


def test_fraction_scale_cap():
    names = tuple(f"m{i}" for i in range(13))
    h = CompatibilityHypergraph(names, (names,))
    size = 2**13
    table = (Fraction(1, size),) * size
    m = EmpiricalModel(h, {n: 2 for n in names}, (table,))
    with pytest.raises(ScaleCapError):
        contextual_fraction(m)


def test_limits_are_per_call():
    with pytest.raises(ScaleCapError):
        response_vertices(gbit(), limits=Limits(effects=3))
    assert not response_vertices(gbit()).is_empty
    for limits in (Limits(effects=3), Limits(equivalences=0)):  # on a memo hit
        with pytest.raises(ScaleCapError):
            response_vertices(gbit(), limits=limits)
    for analysis in (contextual_fraction, fractions_with_disturbance):
        with pytest.raises(ScaleCapError):
            analysis(pr_box(), limits=Limits(assignments=8))
        assert analysis(pr_box()).cf == 1


# -- cross-test equivalence and the witness bridge ---------------------------


def test_three_way_equivalence_on_paired_instances(pr_results, noisy_results):
    pr_frag, pr_lp, (_, pr_neg) = pr_results
    half, half_lp = noisy_results["half"]
    strong, strong_lp, (_, strong_neg) = noisy_results["strong"]

    instances = [
        (classical_simplex(3), None, noncontextual_lp(classical_simplex(3))),
        (halving_fragment(), None, noncontextual_lp(halving_fragment())),
        (qubit_fragment(), None, noncontextual_lp(qubit_fragment())),
        (pr_frag, pr_box(), pr_lp),
        (half, two_party_model_from_fragment(half), half_lp),
        (strong, two_party_model_from_fragment(strong), strong_lp),
    ]
    for f, model, solution in instances:
        infeasible = solution.status == "infeasible"
        if infeasible:
            assert solution.certificate_checks()
        if f is pr_frag:
            negativity = pr_neg
        elif f is strong:
            negativity = strong_neg
        else:
            _, negativity = minimal_negativity(f)
        assert (negativity > 0) == infeasible
        if model is not None:
            assert (contextual_fraction(model).cf > 0) == infeasible


def test_bridge_recovers_ncf_on_feasible_instances(noisy_results):
    half, half_lp = noisy_results["half"]
    cases = [
        (classical_simplex(3), noncontextual_lp(classical_simplex(3))),
        (halving_fragment(), noncontextual_lp(halving_fragment())),
        (qubit_fragment(), noncontextual_lp(qubit_fragment())),
        (half, half_lp),
    ]
    for f, solution in cases:
        bridged = fraction_via_connection(f, solution)
        assert bridged == 1
        assert 1 - bridged == 0  # the reproduced behavior has no contextual part
    for s in range(3):
        for mi in range(2):
            assert (
                fraction_via_connection(
                    halving_fragment(), cases[1][1],
                    state_index=s, measurement_index=mi,
                )
                == 1
            )


def test_bridge_rejects_infeasible_witnesses():
    solution = noncontextual_lp(gbit())
    with pytest.raises(ValueError, match="feasible"):
        fraction_via_connection(gbit(), solution)
