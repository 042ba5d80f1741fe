"""Tests for fermionic operators, qubit mappings, and molecular problem construction."""

import numpy as np
import pytest

from repro.chemistry import (
    JORDAN_WIGNER,
    PARITY,
    Molecule,
    build_molecular_problem,
    exact_ground_state,
    exact_ground_state_energy,
    hartree_fock_occupations,
    make_problem,
    map_fermion_terms,
    number_operator_terms,
    occupations_to_qubit_bits,
    spin_z_operator_terms,
    table1_rows,
    taper_bits,
)
from repro.chemistry.exact import exact_lowest_energies
from repro.chemistry.fermion import FermionTerm
from repro.chemistry.molecules import available_molecules, get_preset
from repro.chemistry.scf import RestrictedHartreeFock
from repro.operators.fingerprints import hamiltonian_fingerprint
from repro.exceptions import ChemistryError
from repro.operators import PauliSum
from repro.statevector import Statevector


class TestMappings:
    def test_jw_number_operator_on_vacuum(self):
        number = map_fermion_terms(number_operator_terms(1), 2, mapping=JORDAN_WIGNER)
        vacuum = Statevector.from_bitstring([0, 0])
        assert np.real(vacuum.expectation(number)) == pytest.approx(0.0)

    def test_jw_number_operator_counts_occupations(self):
        number = map_fermion_terms(number_operator_terms(2), 4, mapping=JORDAN_WIGNER)
        state = Statevector.from_bitstring([1, 0, 1, 1])
        assert np.real(state.expectation(number)) == pytest.approx(3.0)

    def test_jw_anticommutation(self):
        # {a_0, a_0^dagger} = 1
        num_orbitals = 3
        a0 = map_fermion_terms([FermionTerm(((0, False),), 1.0)], num_orbitals, JORDAN_WIGNER)
        a0dag = map_fermion_terms([FermionTerm(((0, True),), 1.0)], num_orbitals, JORDAN_WIGNER)
        anticommutator = (a0 @ a0dag) + (a0dag @ a0)
        assert anticommutator == PauliSum.identity(num_orbitals)

    def test_jw_different_modes_anticommute(self):
        num_orbitals = 3
        a0 = map_fermion_terms([FermionTerm(((0, False),), 1.0)], num_orbitals, JORDAN_WIGNER)
        a1dag = map_fermion_terms([FermionTerm(((1, True),), 1.0)], num_orbitals, JORDAN_WIGNER)
        anticommutator = (a0 @ a1dag) + (a1dag @ a0)
        assert anticommutator.num_terms == 0

    def test_parity_anticommutation(self):
        num_orbitals = 4
        a2 = map_fermion_terms([FermionTerm(((2, False),), 1.0)], num_orbitals, PARITY)
        a2dag = map_fermion_terms([FermionTerm(((2, True),), 1.0)], num_orbitals, PARITY)
        anticommutator = (a2 @ a2dag) + (a2dag @ a2)
        assert anticommutator == PauliSum.identity(num_orbitals)

    def test_occupation_encoding_jw_vs_parity(self):
        occupations = [1, 0, 1, 1]
        assert occupations_to_qubit_bits(occupations, JORDAN_WIGNER) == occupations
        assert occupations_to_qubit_bits(occupations, PARITY) == [1, 1, 0, 1]

    def test_taper_bits_removes_two_positions(self):
        bits = [1, 1, 0, 1]
        assert taper_bits(bits, num_spatial_orbitals=2) == [1, 0]

    def test_hartree_fock_occupations(self):
        occupations = hartree_fock_occupations(num_spatial=3, num_alpha=2, num_beta=1)
        assert occupations.tolist() == [1, 1, 0, 1, 0, 0]

    def test_unknown_mapping(self):
        with pytest.raises(ChemistryError):
            map_fermion_terms([], 2, mapping="bravyi_kitaev")

    def test_spin_z_operator(self):
        spin_z = map_fermion_terms(spin_z_operator_terms(2), 4, mapping=JORDAN_WIGNER)
        up_state = Statevector.from_bitstring([1, 0, 0, 0])  # one alpha electron
        assert np.real(up_state.expectation(spin_z)) == pytest.approx(0.5)


class TestMolecularProblem:
    def test_h2_reference_energies(self, h2_problem):
        assert h2_problem.num_qubits == 2
        assert h2_problem.hf_energy == pytest.approx(-1.1167, abs=2e-3)
        assert h2_problem.exact_energy == pytest.approx(-1.1373, abs=2e-3)

    def test_jw_and_parity_spectra_agree(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))], name="H2")
        jw = build_molecular_problem(molecule, mapping=JORDAN_WIGNER, two_qubit_reduction=False)
        parity = build_molecular_problem(molecule, mapping=PARITY, two_qubit_reduction=False)
        assert jw.exact_energy == pytest.approx(parity.exact_energy, abs=1e-8)

    def test_two_qubit_reduction_preserves_ground_state(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.9))], name="H2")
        full = build_molecular_problem(molecule, mapping=PARITY, two_qubit_reduction=False)
        reduced = build_molecular_problem(molecule, mapping=PARITY, two_qubit_reduction=True)
        assert reduced.num_qubits == full.num_qubits - 2
        assert reduced.exact_energy == pytest.approx(full.exact_energy, abs=1e-8)

    def test_hf_determinant_energy_matches_scf(self, h2_problem):
        hf_state = Statevector.from_bitstring(h2_problem.hf_bits)
        energy = float(np.real(hf_state.expectation(h2_problem.hamiltonian)))
        assert energy == pytest.approx(h2_problem.hf_energy, abs=1e-6)

    def test_hf_determinant_energy_matches_scf_lih(self, lih_problem):
        hf_state = Statevector.from_bitstring(lih_problem.hf_bits)
        energy = float(np.real(hf_state.expectation(lih_problem.hamiltonian)))
        assert energy == pytest.approx(lih_problem.hf_energy, abs=1e-6)

    def test_exact_below_hf(self, lih_problem):
        assert lih_problem.exact_energy < lih_problem.hf_energy

    def test_hamiltonian_is_hermitian(self, lih_problem):
        assert lih_problem.hamiltonian.is_hermitian()

    def test_number_operators_on_hf_state(self, lih_problem):
        hf_state = Statevector.from_bitstring(lih_problem.hf_bits)
        n_alpha = np.real(hf_state.expectation(lih_problem.number_operator_alpha))
        n_beta = np.real(hf_state.expectation(lih_problem.number_operator_beta))
        assert n_alpha == pytest.approx(lih_problem.num_alpha, abs=1e-8)
        assert n_beta == pytest.approx(lih_problem.num_beta, abs=1e-8)

    def test_two_qubit_reduction_requires_parity(self):
        molecule = Molecule.from_angstrom([("H", (0, 0, 0)), ("H", (0, 0, 0.74))])
        with pytest.raises(ChemistryError):
            build_molecular_problem(molecule, mapping=JORDAN_WIGNER, two_qubit_reduction=True)

    def test_particle_sector_override(self):
        problem = make_problem("H2+", 1.06, particle_sector=(1, 0))
        assert problem.num_alpha == 1 and problem.num_beta == 0
        # A one-electron reference determinant sits above the neutral HF energy.
        assert problem.hf_energy > -1.0


class TestExactSolver:
    def test_matches_dense_diagonalization(self, h2_problem):
        dense = np.linalg.eigvalsh(h2_problem.hamiltonian.to_matrix())[0]
        assert exact_ground_state_energy(h2_problem.hamiltonian) == pytest.approx(dense, abs=1e-9)

    def test_ground_state_is_eigenvector(self, h2_problem):
        result = exact_ground_state(h2_problem.hamiltonian)
        matrix = h2_problem.hamiltonian.to_matrix()
        residual = matrix @ result.state.vector - result.energy * result.state.vector
        assert np.linalg.norm(residual) < 1e-8

    def test_refuses_oversized_problems(self):
        big = PauliSum({"I" * 20: 1.0})
        with pytest.raises(ChemistryError):
            exact_ground_state(big, max_qubits=16)

    def test_lanczos_ground_energy_is_deterministic(self, h4_problem):
        # 6 qubits takes the sparse Lanczos path, whose start vector is fixed.
        energies = {exact_ground_state_energy(h4_problem.hamiltonian) for _ in range(4)}
        assert len(energies) == 1
        assert energies.pop() == pytest.approx(h4_problem.exact_energy, abs=1e-12)

    def test_lanczos_spectrum_is_deterministic(self):
        # 11 qubits: above the dense-spectrum limit, so eigsh runs.
        n = 11
        terms = {}
        for site in range(n):
            terms["I" * site + "X" + "I" * (n - site - 1)] = 0.7
            if site + 1 < n:
                terms["I" * site + "ZZ" + "I" * (n - site - 2)] = -1.0
        chain = PauliSum(terms)
        spectra = [exact_lowest_energies(chain, 3) for _ in range(3)]
        assert spectra[0] == spectra[1] == spectra[2]


# hamiltonian_fingerprint of every preset whose equilibrium build (without
# the exact reference) takes about a second or less, as computed before the
# integral engine was tabulated: the qubit Hamiltonians must not move a bit.
PINNED_FINGERPRINTS = {
    "H2": "3507dcd02560ebf0",
    "H2+": "decf938f3ffee6a3",
    "LiH": "228725dd6dc2accf",
    "H4": "812c08a2cee82c79",
    "H6": "76a2f25e9d45c38b",
    "H8": "881fcc90370ac027",
    "H2O": "c9d5c4fff7c921ec",
    "BeH2": "351a638802cf8fc7",
    "N2": "0055c5942a487869",
}


class TestPinnedBuilds:
    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_fingerprint_unchanged(self, name):
        problem = make_problem(name, compute_exact=False)
        assert hamiltonian_fingerprint(problem.hamiltonian) == PINNED_FINGERPRINTS[name]

    def test_sigma_active_space_build_runs_scf_once(self, monkeypatch):
        calls = []
        run = RestrictedHartreeFock.run

        def counting_run(self, *args, **kwargs):
            calls.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(RestrictedHartreeFock, "run", counting_run)
        problem = make_problem("LiH")
        assert len(calls) == 1
        assert problem.fingerprint() == PINNED_FINGERPRINTS["LiH"]


class TestPresets:
    def test_available_molecules(self):
        names = available_molecules()
        for expected in ("H2", "LiH", "H2O", "H6", "N2", "BeH2", "H10"):
            assert expected in names

    def test_lih_preset_qubit_count(self, lih_problem):
        assert lih_problem.num_qubits == get_preset("LiH").expected_qubits

    def test_h4_preset_qubit_count(self, h4_problem):
        assert h4_problem.num_qubits == get_preset("H4").expected_qubits

    def test_unknown_molecule(self):
        with pytest.raises(ChemistryError):
            make_problem("XeF6")

    def test_unreasonable_bond_length(self):
        with pytest.raises(ChemistryError):
            make_problem("H2", 50.0)

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == len(available_molecules())
        assert all("qubits" in row for row in rows)
