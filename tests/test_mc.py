"""The deformation recursion m_n = P(sigma(D_n)) and its diagnostics."""
import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from graphdgla import algebra, cli, mc
from graphdgla.algebra import (
    GraphVector,
    SigmaDomainError,
    antipode,
    bracket,
    compose_terms,
    differential,
    expand_wedge_basis,
    project,
    project_constant,
    sigma,
    vec,
)
from graphdgla.graphs import b1_power, c2L, c2R, enumerate_classes, t2L, t2R
from test_algebra import ref_compose


class TestDTerm:
    def test_order_2(self):
        series = mc.initial_series()
        got = mc.d_term(series, 2)
        want = -(vec(t2R()) - vec(t2L()) + vec(c2L()) - vec(c2R()))
        assert got == want

    def test_order_1_empty_sum(self):
        assert mc.d_term(mc.initial_series(), 1).is_zero

    def test_order_3_folds_cross_terms(self):
        series = mc.solve(2)
        got = mc.d_term(series, 3)
        assert got == -bracket(series.coeffs[1], series.coeffs[2])

    def test_missing_lower_orders(self):
        with pytest.raises(ValueError):
            mc.d_term(mc.initial_series(), 4)


class TestSolve:
    def test_initial_conditions(self):
        series = mc.solve(1)
        assert series.coeffs[0] == vec(mc.b0())
        assert series.coeffs[1] == vec(mc.b1())

    def test_moyal_recovery(self):
        series = mc.solve(4, "constant")
        for n in range(2, 5):
            assert expand_wedge_basis(series.coeffs[n]) == {n: Fraction(1)}
            assert series.coeffs[n] == vec(b1_power(n), Fraction(1, math.factorial(n)))

    def test_order_2_constant(self):
        series = mc.solve(2, "constant")
        assert series.coeffs[2] == vec(b1_power(2), Fraction(1, 2))

    def test_linear_mode_reports(self):
        series = mc.solve(2, "linear")
        assert len(series.residuals) == 1
        # exploratory: the residual is produced, no value asserted
        assert series.residuals[0] == project(
            mc.differential(series.coeffs[2]) - mc.d_term(series, 2), mc.PROJECTIONS["linear"]
        )

    def test_hbar_grading(self):
        series = mc.solve(4, "none")
        for n in range(5):
            for g, _ in series.coeffs[n]:
                assert g.n == n and g.m == 2
            for g, _ in mc.d_term(series, n):
                assert g.n == n

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            mc.solve(0)

    def test_rejects_unknown_projection(self):
        with pytest.raises(ValueError, match="'bogus'"):
            mc.solve(2, "bogus")

    def test_order_follows_coefficients(self):
        # order is derived from coeffs, not a field kept in step by hand
        assert "order" not in {f.name for f in dataclasses.fields(mc.StarSeries)}
        assert mc.initial_series().order == 1
        series = mc.solve(3)
        assert series.order == len(series.coeffs) - 1 == 3

    def test_d_term_outside_sigma_domain(self, monkeypatch):
        # a one-vertex D_2 term lies outside sigma's domain
        monkeypatch.setattr(mc, "d_term", lambda series, n, *_: vec(mc.b1()))
        with pytest.raises(SigmaDomainError):
            mc.solve(2)

    def test_json_report_shape(self, capsys):
        assert cli.main(["solve", "2", "--projection", "constant", "--format", "json"]) == 0
        (obj,) = json.loads(capsys.readouterr().out)["orders"]
        # the solve digests hash the serialized report, so the order is pinned too
        assert list(obj) == ["n", "m_n", "residual", "lemma1_identity", "defect_norm"]
        series = mc.solve(2, "constant")
        assert obj["n"] == 2
        assert obj["m_n"] == series.coeffs[2].to_json_obj()
        assert obj["residual"] == series.residuals[0].to_json_obj()
        assert obj["defect_norm"] == len(series.residuals[0])


class TestDefect:
    def test_order_0(self):
        assert mc.defect(mc.initial_series(), 0).is_zero

    def test_order_1(self):
        assert mc.defect(mc.initial_series(), 1).is_zero

    def test_constant_projected_zero_through_4(self):
        series = mc.solve(4, "constant")
        for n in range(5):
            assert project_constant(mc.defect(series, n)).is_zero

    def test_past_series_order(self):
        # defect_3 needs m_3, which solve(2) has not formed
        with pytest.raises(ValueError, match="missing lower-order coefficients"):
            mc.defect(mc.solve(2), 3)


class TestLemma1Identity:
    def test_holds_without_projection(self):
        for projection in ("none", "constant", "linear"):
            series = mc.solve(4, projection)
            for n in range(5):
                assert mc.lemma1_identity(series, n)

    def test_fails_without_the_gerstenhaber_sign(self, monkeypatch):
        # the bracket with every slot signed +1 must fail the check at every
        # order, not only at n = 0
        series = [mc.solve(4, p) for p in mc.PROJECTIONS]

        def unsigned(f, g, bound=None, sign=1):
            slots = (
                (gf, i, cf * sign) for gf, cf in f.terms() for i in range(1, gf.m + 1)
            )
            return algebra.grafts(slots, g, bound)

        monkeypatch.setattr(algebra, "compose_terms", unsigned)
        for s in series:
            for n in range(5):
                assert not mc.lemma1_identity(s, n)


class TestProjectionCommutes:
    """solve projects only D_n, which is sound because P keeps or drops a
    graph by its internal in-degrees and neither sigma nor d changes them."""

    @pytest.mark.parametrize("projection", ("constant", "linear"))
    def test_sigma(self, projection):
        for n in (2, 3):
            for m in (2, 3, 4):
                for c in enumerate_classes(n, m):
                    x = vec(c)
                    bound = mc.PROJECTIONS[projection]
                    assert project(sigma(x), bound) == sigma(project(x, bound))

    @pytest.mark.parametrize("projection", ("constant", "linear"))
    def test_differential(self, projection):
        for n in range(4):
            for m in (1, 2, 3):
                for c in enumerate_classes(n, m):
                    x = vec(c)
                    bound = mc.PROJECTIONS[projection]
                    assert project(differential(x), bound) == differential(
                        project(x, bound)
                    )


# Each projection written out on its own, so the oracle below shares no code
# with LabeledGraph.fits, the test that solve's grafting honours.
ORACLE_KEEPS = {
    "none": lambda g: True,
    "constant": lambda g: all(t < g.m for pair in g.targets for t in pair),
    "linear": lambda g: max(
        [sum(pair.count(v) for pair in g.targets) for v in range(g.m, g.m + g.n)],
        default=0,
    ) <= 1,
}


def oracle_project(x, projection):
    keep = ORACLE_KEEPS[projection]
    return GraphVector({g: c for g, c in x.terms() if keep(g)})


# sigma's per-term constant: the merger's, and a refuted alternative; the
# bounded grafts and the reports must not depend on it
SIGMA_SCALES = {
    "merger": algebra.sigma_normalization,
    "linear-alt": lambda n: Fraction(-1, 2 ** (n - 1) - 1),
}


def bounded_bracket(f, g, bound=None):
    """[f, g] = f o g + g o f for f, g of Lie degree 1, from only the grafts
    that fit ``bound``."""
    both = itertools.chain(compose_terms(f, g, bound), compose_terms(g, f, bound))
    return GraphVector.combine(both)


def tower(k, bound=None):
    """The initiator tower t^{k-1}(b1), t(v) = sigma(P([b1, v]))."""
    v = b1v = vec(mc.b1())
    for _ in range(k - 1):
        v = sigma(bounded_bracket(b1v, v, bound))
    return v


class TestProjectedGrafts:
    """Making only the grafts that fit P's bound gives the same vectors as
    forming everything and projecting afterwards."""

    @pytest.mark.parametrize("projection", ("constant", "linear"))
    def test_bracket(self, projection):
        bound = mc.PROJECTIONS[projection]
        pool = [vec(c) for n in range(3) for c in enumerate_classes(n, 2)]
        for f in pool:
            for g in pool:
                want = oracle_project(bracket(f, g), projection)
                assert bounded_bracket(f, g, bound) == want

    @pytest.mark.parametrize("normalization", ("merger", "linear-alt"))
    @pytest.mark.parametrize("projection", ("constant", "linear"))
    def test_d_term(self, projection, normalization, monkeypatch):
        monkeypatch.setattr(algebra, "sigma_normalization", SIGMA_SCALES[normalization])
        bound = mc.PROJECTIONS[projection]
        series = mc.solve(5, projection)
        for n in range(6):
            assert mc.d_term(series, n, bound) == oracle_project(
                mc.d_term(series, n), projection
            )

    @pytest.mark.parametrize("projection", ("constant", "linear"))
    def test_hat_iteration(self, projection):
        b1v = v = vec(mc.b1())
        for k in range(1, 5):
            assert tower(k, mc.PROJECTIONS[projection]) == v
            v = sigma(oracle_project(bracket(b1v, v), projection))

    @pytest.mark.parametrize("projection", ("constant", "linear"))
    def test_cocycle_check(self, projection):
        # P(d D_{n+1}) on the unprojected series, whose D_{n+1} keeps every
        # graft P kills
        series, bound = mc.solve(4), mc.PROJECTIONS[projection]
        for n in range(5):
            want = differential(oracle_project(mc.d_term(series, n + 1), projection))
            assert differential(mc.d_term(series, n + 1, bound)) == want


class TestBracketTable:
    """solve and the public functions form each composition once per order;
    the bracket sums over every ordered pair are the oracle."""

    @pytest.mark.parametrize("projection", mc.PROJECTIONS)
    def test_matches_full_bracket_sums(self, projection):
        series = mc.solve(4, projection)
        m = series.coeffs
        for n in range(5):
            full = [bracket(m[i], m[n - i]) for i in range(n + 1)]
            cross = sum(full[1:n], GraphVector())
            assert mc.d_term(series, n) == cross.scale(Fraction(-1, 2))
            assert mc.defect(series, n) == sum(full, GraphVector())

    @pytest.mark.parametrize("normalization", ("merger", "linear-alt"))
    @pytest.mark.parametrize("projection", mc.PROJECTIONS)
    def test_reports_match_public_functions(self, projection, normalization, monkeypatch):
        monkeypatch.setattr(algebra, "sigma_normalization", SIGMA_SCALES[normalization])
        series = mc.solve(4, projection)
        for n in range(2, 5):
            residual = series.residuals[n - 2]
            # the projected defect is twice the residual, which is what the
            # report's constant lemma1_identity and its defect_norm claim
            defect = oracle_project(mc.defect(series, n), projection)
            assert defect == 2 * residual
            assert mc.lemma1_identity(series, n)
            want = mc.differential(series.coeffs[n]) - mc.d_term(series, n)
            assert residual == oracle_project(want, projection)


class TestCompositionsOracle:
    """d_term and defect against the fold-with-+ sums of ref_compose."""

    @pytest.mark.parametrize("projection", mc.PROJECTIONS)
    def test_d_term_and_defect(self, projection):
        series = mc.solve(4, projection)
        m, bound = series.coeffs, mc.PROJECTIONS[projection]
        for n in range(5):
            folds = [ref_compose(m[j], m[n - j]) for j in range(n + 1)]
            d_n = -sum(folds[1:n], GraphVector())
            assert mc.d_term(series, n) == d_n
            assert mc.d_term(series, n, bound) == oracle_project(d_n, projection)
            assert mc.defect(series, n) == sum(folds, GraphVector()).scale(2)


class TestStorageOrder:
    """The order in which ``defect`` stores its terms becomes
    ``compile_vector``'s term order, which the CI operator digests pin."""

    @pytest.mark.parametrize("n, size, digest", [
        (3, 41, "65f189862c8ac7209a093856fc3e2217bf02c82bca0687ce8c8f7025f68ea9d3"),
        (4, 342, "0b2f90cc195098b3dd215a0c4a0cc757800ac0b7843a68573b92faffef65c7af"),
    ])
    def test_linear_defect(self, n, size, digest):
        v = mc.defect(mc.solve(4, "linear"), n)
        text = "".join("%s %s\n" % (g.to_literal(), c) for g, c in v.terms())
        assert len(v) == size
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCocycle:
    """P(d D_{n+1}) vanishes when the lower orders close."""

    def test_trivial_order(self):
        assert differential(mc.d_term(mc.initial_series(), 1)).is_zero

    def test_constant_projection(self):
        series = mc.solve(3, "constant")
        for n in (1, 2, 3):
            assert differential(mc.d_term(series, n + 1, 0)).is_zero


class TestContractionResidual:
    def test_reported_not_asserted(self):
        series = mc.solve(3, "none")
        for n in (2, 3):
            dn = mc.d_term(series, n)
            r = differential(sigma(dn)) + sigma(differential(dn)) - dn
            # the almost-contraction law holds only up to Poisson-kernel
            # terms; the residual must die under the constant projection
            assert project_constant(r).is_zero


class TestHatIteration:
    def test_first_step_constant(self):
        # sigma([b1, b1]) = -b1^2 on the wedge span
        assert project_constant(sigma(bracket(vec(mc.b1()), vec(mc.b1())))) == -vec(
            b1_power(2)
        )

    def test_m4_decomposition(self):
        """m_4 = -1/2 h4 - 1/8 sigma([h2, h2]) with hk the initiator tower
        t^{k-1}(b1), all under the constant projection."""
        series = mc.solve(4, "constant")
        h4 = tower(4, 0)
        h2 = tower(2, 0)
        correction = project_constant(sigma(bracket(h2, h2)))
        assert series.coeffs[4] == h4.scale(Fraction(-1, 2)) + correction.scale(
            Fraction(-1, 8)
        )


class TestSymmetry:
    def test_antipode_alternates_on_constant_series(self):
        # transposing b1^n flips every wedge, and epsilon(2) = -1, so the
        # antipode multiplies m_n by (-1)^{n+1}: the opposite star-product
        # is the original with the deformation parameter negated.
        series = mc.solve(4, "constant")
        for n in range(5):
            assert antipode(series.coeffs[n]) == series.coeffs[n].scale(
                (-1) ** (n + 1)
            )
