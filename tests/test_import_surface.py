"""What a fresh interpreter loads: importing the package and its CLI loads
no library module, each command loads only the modules it runs, and every
exported name resolves, on first use, to the object its module defines."""

import importlib
import json
import subprocess
import sys

import pytest

import quivermoment

EXPORTED = frozenset("""
    ExtendedQuiver FlowOptions FlowOutcome GradedSubspace GroupElement LieAlgebraElement MomentTriple
    Quiver RationalThetaTriple Representation SolveOptions SolveOutcome StabilityCertificate
    StabilityParameter TransportError TransportPlan TransportResult VertexMatrices WeightSet act
    apply_structure balanced_theta center_to_theta certify_stable_numerical character_log_modulus
    complex_regular_check complex_vs_real_identity cone_project d_theta exp_action extend
    flow_integrate generated_subrep grad_h h_value hermitian_pairing hm_limit_filtration
    hyperkahler_metric hyperkahler_regular_check hyperkahler_rotation in_C_reg infinitesimal_action
    inner_product king_slope king_stable_test moment_complex moment_hyperkahler
    moment_pairing_fd_oracle moment_real norm_sq pairing pairing_norm polar_decompose quaternion_act
    quaternion_transport regular_walls replay_transport solve_moment_equation stabilizer_lie_dim
    subrepresentation_residual theta_to_center torus_weights transport_complex transport_hyperkahler
    transport_real verify_subrepresentation
""".split())


def loaded_after(code):
    """The quivermoment modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('quivermoment')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_library_module():
    assert loaded_after("import quivermoment, quivermoment.cli") == {"quivermoment", "quivermoment.cli"}
    # a submodule is not an exported name, so ``from`` imports it
    assert "quivermoment.selftest" in loaded_after("from quivermoment import cli, flow, selftest")


def test_regular_loads_neither_the_solver_nor_selftest(tmp_path):
    spec = tmp_path / "in.json"
    spec.write_text(json.dumps({
        "quiver": {"vertices": 2, "edges": [[0, 1]]},
        "dims": [1, 1],
        "export_weights": True,
        "xi": [["1", "0"], ["-1", "0"]],
        "theta_triple": {"theta_I": ["1", "-1"], "theta_J": ["0", "0"], "theta_K": ["0", "0"]},
    }))
    argv = ["regular", "--input", str(spec), "--output", str(tmp_path / "out.json")]
    loaded = loaded_after(f"from quivermoment.cli import main\nassert main({argv!r}) == 0")
    assert "quivermoment.cones" in loaded
    assert not loaded & {"quivermoment.kempf_ness", "quivermoment.selftest"}


def test_exported_names_are_their_modules_objects():
    assert len(quivermoment.__all__) == len(EXPORTED) == 66
    assert set(quivermoment.__all__) == EXPORTED
    for module, names in quivermoment._EXPORTS.items():
        owner = importlib.import_module(f"quivermoment.{module}")
        for name in names:
            assert getattr(quivermoment, name) is getattr(owner, name), name
    assert EXPORTED <= set(dir(quivermoment))
    with pytest.raises(AttributeError, match="no_such_name"):
        quivermoment.no_such_name
