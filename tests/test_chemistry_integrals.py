"""Tests for the STO-3G basis, Gaussian integrals, and restricted Hartree-Fock."""

import numpy as np
import pytest

from repro.chemistry import (
    IntegralEngine,
    Molecule,
    RestrictedHartreeFock,
    boys_function,
    build_sto3g_basis,
    supported_elements,
)
from repro.chemistry.basis import BasisFunction
from repro.chemistry.elements import ANGSTROM_TO_BOHR, atomic_number
from repro.chemistry.molecules import get_preset
from repro.exceptions import ChemistryError
from tests import recursive_integrals


class TestGeometry:
    def test_from_angstrom_converts_to_bohr(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 1.0))])
        distance = np.linalg.norm(np.array(molecule.atoms[1].position))
        assert distance == pytest.approx(ANGSTROM_TO_BOHR)

    def test_electron_counts(self):
        water = Molecule.from_angstrom(
            [("O", (0, 0, 0)), ("H", (0, 0, 0.96)), ("H", (0.92, 0, -0.26))], name="H2O"
        )
        assert water.num_electrons == 10
        assert water.num_alpha == 5 and water.num_beta == 5

    def test_charge_and_multiplicity(self):
        cation = Molecule.from_angstrom(
            [("H", (0, 0, 0)), ("H", (0, 0, 1.0))], charge=1, multiplicity=2
        )
        assert cation.num_electrons == 1
        assert cation.num_alpha == 1 and cation.num_beta == 0

    def test_inconsistent_multiplicity(self):
        with pytest.raises(ChemistryError):
            Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 1.0))], multiplicity=2)

    def test_nuclear_repulsion_h2(self):
        bond = 1.4  # Bohr
        molecule = Molecule.from_angstrom(
            [("H", (0, 0, 0)), ("H", (0, 0, bond / ANGSTROM_TO_BOHR))]
        )
        assert molecule.nuclear_repulsion_energy() == pytest.approx(1.0 / bond, rel=1e-6)

    def test_coincident_atoms_rejected(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0))])
        with pytest.raises(ChemistryError):
            molecule.nuclear_repulsion_energy()

    def test_unknown_element(self):
        with pytest.raises(ChemistryError):
            atomic_number("Uue")


class TestBasis:
    def test_supported_elements_include_first_row(self):
        elements = supported_elements()
        for symbol in ("H", "Li", "Be", "C", "N", "O"):
            assert symbol in elements

    def test_hydrogen_has_one_function(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        assert len(build_sto3g_basis(molecule)) == 2

    def test_oxygen_has_five_functions(self):
        molecule = Molecule.from_angstrom(
            [("O", (0, 0, 0)), ("H", (0, 0, 0.96)), ("H", (0.92, 0, -0.26))]
        )
        assert len(build_sto3g_basis(molecule)) == 5 + 1 + 1

    def test_oxygen_1s_exponents_match_reference(self):
        molecule = Molecule.from_angstrom([("O", (0, 0, 0)), ("H", (0, 0, 0.96)), ("H", (0.92, 0, -0.26))])
        oxygen_1s = build_sto3g_basis(molecule)[0]
        np.testing.assert_allclose(
            oxygen_1s.exponents, (130.709320, 23.808861, 6.443608), rtol=1e-4
        )

    def test_hydrogen_exponents_match_reference(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        hydrogen_1s = build_sto3g_basis(molecule)[0]
        np.testing.assert_allclose(
            hydrogen_1s.exponents, (3.42525091, 0.62391373, 0.16885540), rtol=1e-4
        )


class TestIntegrals:
    def test_boys_limit_at_zero(self):
        assert boys_function(0, 0.0) == pytest.approx(1.0)
        assert boys_function(2, 0.0) == pytest.approx(1.0 / 5.0)

    def test_boys_zeroth_order_closed_form(self):
        from math import erf, pi, sqrt

        x = 0.8
        expected = 0.5 * sqrt(pi / x) * erf(sqrt(x))
        assert boys_function(0, x) == pytest.approx(expected, rel=1e-10)

    def test_overlap_is_normalized_and_symmetric(self):
        molecule = Molecule.from_angstrom([("O", (0, 0, 0)), ("H", (0, 0, 0.96)), ("H", (0.92, 0, -0.26))])
        engine = IntegralEngine(build_sto3g_basis(molecule))
        overlap = engine.overlap_matrix()
        np.testing.assert_allclose(np.diag(overlap), 1.0, atol=1e-10)
        np.testing.assert_allclose(overlap, overlap.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(overlap)
        assert np.all(eigenvalues > 0)

    def test_eri_symmetries(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        engine = IntegralEngine(build_sto3g_basis(molecule))
        eri = engine.electron_repulsion_tensor()
        np.testing.assert_allclose(eri, eri.transpose(1, 0, 2, 3), atol=1e-12)
        np.testing.assert_allclose(eri, eri.transpose(0, 1, 3, 2), atol=1e-12)
        np.testing.assert_allclose(eri, eri.transpose(2, 3, 0, 1), atol=1e-12)

    def test_h2_one_electron_reference_values(self):
        # Reference values from Szabo & Ostlund for H2/STO-3G at R = 1.4 Bohr.
        bond = 1.4 / ANGSTROM_TO_BOHR
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, bond))])
        engine = IntegralEngine(build_sto3g_basis(molecule))
        overlap = engine.overlap_matrix()
        kinetic = engine.kinetic_matrix()
        assert overlap[0, 1] == pytest.approx(0.6593, abs=2e-3)
        assert kinetic[0, 0] == pytest.approx(0.7600, abs=2e-3)
        assert kinetic[0, 1] == pytest.approx(0.2365, abs=2e-3)


def _engines(basis):
    return IntegralEngine(basis), recursive_integrals.IntegralEngine(basis)


def _assert_bit_identical(engine, oracle, charges, positions):
    """Every integral matrix equals the recursive oracle's, bit for bit."""
    assert np.array_equal(engine.overlap_matrix(), oracle.overlap_matrix())
    assert np.array_equal(engine.kinetic_matrix(), oracle.kinetic_matrix())
    assert np.array_equal(
        engine.nuclear_attraction_matrix(charges, positions),
        oracle.nuclear_attraction_matrix(charges, positions),
    )
    assert np.array_equal(
        engine.electron_repulsion_tensor(), oracle.electron_repulsion_tensor()
    )


class TestTabulatedMatchesRecursion:
    """The tabulated engine against the recursive one kept under tests/.

    H2O is non-linear, so it exercises all three axes and the p shells; N2 is
    left out only because the oracle alone takes seconds on it.
    """

    @pytest.mark.parametrize("name", ["H2", "LiH", "H4", "H2O"])
    def test_presets_at_equilibrium(self, name):
        preset = get_preset(name)
        molecule = preset.geometry_builder(preset.equilibrium_bond_length)
        _assert_bit_identical(
            *_engines(build_sto3g_basis(molecule)),
            molecule.nuclear_charges,
            molecule.coordinates,
        )

    def test_d_type_functions_off_axis(self):
        # STO-3G has no d shells; Cartesian d functions exercise E^{ij}_t with
        # i, j = 2, the kinetic <a|b-2> term and higher Boys orders.
        def function(center, angular, exponents, coefficients):
            return BasisFunction(center, angular, exponents, coefficients, 0, "test")

        basis = [
            function((0.0, 0.0, 0.0), (2, 0, 0), (1.3, 0.4), (0.6, 0.5)),
            function((0.3, -1.1, 0.7), (1, 1, 0), (0.9, 0.25), (0.7, 0.4)),
            function((1.2, 0.4, -0.5), (0, 0, 1), (2.1, 0.5, 0.15), (0.2, 0.5, 0.4)),
            function((1.2, 0.4, -0.5), (0, 0, 0), (3.4, 0.6), (0.4, 0.7)),
        ]
        positions = np.array([[0.0, 0.0, 0.0], [0.3, -1.1, 0.7], [1.2, 0.4, -0.5]])
        _assert_bit_identical(*_engines(basis), [8, 1, 3], positions)

    def test_boys_function(self):
        for order in range(7):
            for argument in (0.0, 1e-13, 1e-12, 3e-7, 0.05, 0.8, 4.2, 17.0, 63.5):
                assert boys_function(order, argument) == recursive_integrals.boys_function(
                    order, argument
                )


class TestHartreeFock:
    def test_h2_energy_matches_literature(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.7414))], name="H2")
        result = RestrictedHartreeFock().run(molecule)
        assert result.converged
        assert result.energy == pytest.approx(-1.1167, abs=2e-3)

    def test_lih_energy_matches_literature(self):
        molecule = Molecule.from_angstrom([("Li", (0, 0, 0)), ("H", (0, 0, 1.6))], name="LiH")
        result = RestrictedHartreeFock().run(molecule)
        assert result.converged
        assert result.energy == pytest.approx(-7.862, abs=3e-3)

    def test_variational_bound_vs_stretched(self):
        equilibrium = RestrictedHartreeFock().run(
            Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        )
        stretched = RestrictedHartreeFock().run(
            Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 2.5))])
        )
        assert equilibrium.energy < stretched.energy

    def test_density_trace_equals_electron_count(self):
        molecule = Molecule.from_angstrom([("Li", (0, 0, 0)), ("H", (0, 0, 1.6))], name="LiH")
        result = RestrictedHartreeFock().run(molecule)
        trace = float(np.trace(result.density_matrix @ result.overlap))
        assert trace == pytest.approx(molecule.num_electrons, abs=1e-6)

    def test_orbital_energies_sorted(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        result = RestrictedHartreeFock().run(molecule)
        assert np.all(np.diff(result.orbital_energies) >= -1e-10)
