"""One test per acceptance criterion, each printing its pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; the CLI
equivalent is `latticecft accept`.
"""

import random
from fractions import Fraction

import pytest

from latticecft import blocks, fock, heisenberg
from latticecft.acceptance import (
    ALL_CRITERIA,
    DEFAULT_SEED,
    SWEEP_GRAMS,
    Tolerances,
    _discs,
    _random_split,
    criterion_01_normalization,
    criterion_02_factorization,
    criterion_03_stone_von_neumann,
    criterion_04_induced_decomposition,
    criterion_05_modular,
    criterion_06_verlinde,
    criterion_07_theta,
    criterion_08_characters,
    criterion_09_bogoliubov,
    criterion_10_determinism,
    run_all,
)
from latticecft.blocks import genus1_mcg_rep, s_matrix
from latticecft.errors import NonIntegralEnergy
from latticecft.lattices import BUNDLED_GRAMS, discriminant_group, validate_even_lattice
from latticecft.surfaces import glue

TOL = Tolerances()


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.cid:02d} [{status}] {result.name}")
    assert result.passed, result.details


def test_criterion_01_normalization():
    _report(criterion_01_normalization(TOL, DEFAULT_SEED))


def test_criterion_02_factorization():
    _report(criterion_02_factorization(TOL, DEFAULT_SEED))


def test_criterion_02_targets_are_the_gluings():
    # c02 checks glue against a target built without gluing: replay its
    # seeded splits and glue each one here
    rng = random.Random(DEFAULT_SEED)
    targets = [(g, b) for g in range(4) for b in range(5)]
    splits = 0
    for _, disc in _discs(SWEEP_GRAMS).values():
        for i in range(200):
            target, pieces, matching, _ = _random_split(rng, *targets[i % 20], disc)
            glued = glue(pieces[0], pieces[1] if len(pieces) == 2 else None, matching)
            assert glued.component_signature() == target.component_signature()
            assert sorted(glued.circle_ids()) == sorted(target.circle_ids())
            splits += 1
    assert splits == 1000


def test_criterion_03_stone_von_neumann():
    result = criterion_03_stone_von_neumann(TOL, DEFAULT_SEED)
    _report(result)
    assert result.details == {"representations_checked": 40,
                              "explicit_intertwiners": 42,
                              "max_commutant_deviation": 0.0,
                              "max_hom_deviation": 0.0}


class TestStoneVonNeumannCriterionBites:
    # the dimensions are exact ints, so no tolerance may forgive a wrong one
    @pytest.mark.parametrize("name,wrong,tolerance", [
        ("commutant_dimension", 2, 2.0), ("intertwiner_dimension", 0, 1.5)])
    def test_wrong_dimension_fails_at_any_tolerance(self, monkeypatch, name,
                                                    wrong, tolerance):
        monkeypatch.setattr(heisenberg, name, lambda *_: wrong)
        result = criterion_03_stone_von_neumann(Tolerances.overridden(tolerance),
                                                DEFAULT_SEED)
        assert not result.passed


def test_criterion_04_induced_decomposition():
    result = criterion_04_induced_decomposition(TOL, DEFAULT_SEED)
    _report(result)
    assert result.details == {"isotropic_subgroups_checked": {
        "a1": 4, "z4": 11, "z6": 20, "z8": 26, "a2": 5, "d4": 31, "z2z2": 31}}


def test_criterion_05_modular():
    _report(criterion_05_modular(TOL, DEFAULT_SEED))


def test_criterion_06_verlinde():
    _report(criterion_06_verlinde(TOL, DEFAULT_SEED))


def test_criterion_07_theta():
    _report(criterion_07_theta(TOL, DEFAULT_SEED))


def test_criterion_08_characters():
    result = criterion_08_characters(TOL, DEFAULT_SEED)
    _report(result)
    assert result.details == {
        "sectors_checked": {"a1": 2, "z4": 4, "z6": 6, "z8": 8, "a2": 3,
                            "z2z2": 4, "z2z4": 8},
        "sewing": {"a1": {"max_energy": 12, "equal": True},
                   "z4": {"max_energy": 12, "equal": True},
                   "a2": {"max_energy": 8, "equal": True},
                   "z2z2": {"max_energy": 8, "equal": True}}}


class TestCharactersCriterionBites:
    def test_one_dropped_state_fails(self, monkeypatch):
        real = fock.sector_state_counts
        calls = []

        def short_once(*args):
            counts = real(*args)
            if not calls:
                counts[-1] -= 1
            calls.append(args)
            return counts

        monkeypatch.setattr(fock, "sector_state_counts", short_once)
        assert not criterion_08_characters(TOL, DEFAULT_SEED).passed
        assert len(calls) == 35

    def test_non_coset_lift_is_refused(self, monkeypatch):
        # (1/3, ...) lies in no coset of any of the lattices in their duals;
        # the first count to meet it refuses it
        monkeypatch.setattr(fock, "minimal_norm_lift",
                            lambda lat, disc, phi: (Fraction(1, 3),) * lat.rank)
        with pytest.raises(NonIntegralEnergy):
            criterion_08_characters(TOL, DEFAULT_SEED)

    def test_non_minimal_lift_is_refused(self, monkeypatch):
        # one lattice unit above the minimal lift: the first scan to meet
        # the vector below it refuses its negative offset
        real = fock.minimal_norm_lift

        def raised(lat, disc, phi):
            lift = real(lat, disc, phi)
            return (lift[0] + 1,) + lift[1:]

        monkeypatch.setattr(fock, "minimal_norm_lift", raised)
        with pytest.raises(NonIntegralEnergy, match="not in 0..10"):
            criterion_08_characters(TOL, DEFAULT_SEED)


def test_criterion_09_bogoliubov():
    _report(criterion_09_bogoliubov(TOL, DEFAULT_SEED))


class TestBogoliubovCriterionBites:
    # the quadrature meets the closed form to 2.2e-16, so the default
    # tolerance 1e-8 fails an overlap off by a relative 1e-7 and forgives
    # one off by 1e-11
    @pytest.mark.parametrize("relative,passed", [(1e-7, False), (1e-11, True)])
    def test_relative_overlap_error(self, monkeypatch, relative, passed):
        real = fock.bogoliubov_overlap
        monkeypatch.setattr(fock, "bogoliubov_overlap", lambda t: real(t) * (1 + relative))
        assert criterion_09_bogoliubov(TOL, DEFAULT_SEED).passed is passed


def test_criterion_10_determinism():
    _report(criterion_10_determinism(TOL, DEFAULT_SEED))


class TestSuiteSemantics:
    def test_injected_defect_fails_modular_criterion(self, monkeypatch):
        monkeypatch.setattr(blocks, "s_matrix", lambda disc: -s_matrix(disc))
        assert not criterion_05_modular(TOL, DEFAULT_SEED).passed

    def test_modular_criterion_reads_library_relations(self):
        result = criterion_05_modular(TOL, DEFAULT_SEED)
        for name, gram in BUNDLED_GRAMS.items():
            rep = genus1_mcg_rep(discriminant_group(validate_even_lattice(gram)))
            row = result.details[name]
            assert row["s4"] == rep.s4_deviation, name
            assert row["st_cubed"] == rep.st3_deviation, name
            assert row["charge_conjugation"] == rep.s2_is_charge_conjugation, name
            assert row["unitarity"] == rep.unitarity_deviation, name
            assert row["sigma"] == rep.signature, name

    def test_zero_tolerance_fails_numerical_passes_exact(self):
        results = run_all(seed=DEFAULT_SEED, tolerance=0.0)
        by_id = {r.cid: r.passed for r in results}
        # exact integer identities are tolerance-free
        for cid in (1, 2, 4, 8, 10):
            assert by_id[cid], cid
        # every numerical criterion compares against the zero tolerance
        for cid in (3, 5, 6, 7, 9):
            assert not by_id[cid], cid

    def test_only_serial_runs(self):
        with pytest.raises(ValueError, match="threads"):
            run_all(seed=DEFAULT_SEED, threads=2)

    def test_criteria_cover_ten_ids(self):
        assert len(ALL_CRITERIA) == 10
