"""Byte-identity of every scheme's export against recorded SHA-256 digests.

The digests were captured from result_text(run_experiment(cfg), fmt) for the
paper profile of each scheme, in CSV and JSON, with noise off and with
sigma_rel = 0.01, seed = 5, under numpy 2.4.6 (Python 3.11.7). The
magnitude-noise digests (kind="magnitude", same sigma and seed) and the
``idt response`` stdout digests were captured the same way. A refactor of
the config, runners, noise or export must reproduce them exactly; the JSON
digests also pin ExperimentConfig.to_dict() through the config echo. Another
numpy version may change the Philox normal draws or float formatting of the
seeded rows, so recapture only after checking the difference is numpy's.
The six power-sweep digests were recaptured when its per-power scalar kernel
calls became one array kernel call; ``test_model`` bounds that change against
the former scalar formula at rel 1e-15. The eleven JSON digests were
recaptured when the unread ``idt`` config section was deleted: each export
equals the former one with its 7-line ``config_echo.idt`` block removed.
They were recaptured again when ``output_path`` and ``output_format`` left
the config (where a run is written is not part of what it is): each export
equals the former one with its two ``config_echo`` lines
``"output_format": "csv",`` and ``"output_path": null,`` removed.

The master-equation oracle is pinned the same way: the ``oracle check``
stdout at two grids, and the raw complex128 bytes of
``master_equation_reflection`` over seeded random atoms (some with a
zero-rate dephasing channel) and broadcast drive arrays, captured before the
Hamiltonian and jump operators were folded into ``build_liouvillian``. The
two ``oracle check`` digests were recaptured when the oracle's probe went
from a fixed 10 kHz to 1e-6 * gamma20 of the paper atom (4.94 Hz) and its
bound from 1e-3 to 1e-10; ``test_oracle_probe_move_follows_the_weak_probe_law``
bounds the moved deviation. All three were recaptured when the oracle moved
from a complex solve of the column-stacked Liouvillian to a real solve in
the Bloch basis, which changes the rounding only;
``test_real_solve_agrees_with_the_complex_kron_path`` in ``test_lindblad``
bounds that move at 1e-13 relative on the same seeded atoms
(``oracle_reference.golden_atom_drives``).

The two seeded linewidth-pipeline digests were recaptured when the fit
engine gained its decrement stop, which ends a fit once its next step would
move it by less than about 1e-4 of a standard error;
``test_lockstep.py::test_decrement_test_moves_no_fit_by_1e_3_of_a_standard_error``
bounds that move.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from acoustic_eit import master_equation_reflection, weak_probe_deviation
from acoustic_eit.cli import main
from acoustic_eit.experiments import NoiseParams, paper_profile, result_text, run_experiment
from oracle_reference import golden_atom_drives

GOLDEN = {
    ("control-sweep", False, "csv"): "218e34901b436b424afbd6e06e2d028db95abdbe13bbe507d4c63a87f6da7549",
    ("control-sweep", False, "json"): "c556ab86150f4c5c364a65b98e0233cfbe085c3b4d42ba678a8b82629bde0ef8",
    ("control-sweep", True, "csv"): "fb2ed3ac34e3df219ffe147782d6e979249b0b7662a17cde903f90e4a02a9bcf",
    ("control-sweep", True, "json"): "f1691a1a4d4ebedd616c7649f3878baf62eaa6dd559032aa025b009ff657dce1",
    ("power-sweep", False, "csv"): "10df966d563cf51b5d3ade7b52f75363a4c10cc8e87d87fc7a168111b32b4f28",
    ("power-sweep", False, "json"): "ace08cf7442087e923cf52362827573a7beb03fafcd60afb6c120954893abe76",
    ("power-sweep", True, "csv"): "65126ba459340836f883f4158723b7c8bd18d624b98b28a9384de11f6b3c85c9",
    ("power-sweep", True, "json"): "0f5a275c5f469c5042b95e296bb58b89ed98ecfb3932bfd438a714a5031b4989",
    ("flux-sweep", False, "csv"): "f052826c46e176dde581de0f925206774707a3ebf80396562c79df0dd83a8485",
    ("flux-sweep", False, "json"): "efd3f145a8fd8b15db4cf7356aa19c8e0d8099756eaf56b39ab7419b8b4d0d65",
    ("flux-sweep", True, "csv"): "2bf1ff1f4f47a38c71c56b38170ffb544462de87bae4c204147f40374aea8670",
    ("flux-sweep", True, "json"): "a98f8ed57c1f326522152a74bfc4d632eca82931ae0d6a7d871f71ade35836a1",
    ("linewidth-pipeline", False, "csv"): "5aa78f2a59150d537efc031b11d3286f27f9bd3ac7659afe16d70464c21ed665",
    ("linewidth-pipeline", False, "json"): "d1cdc70733259632a75db0b5f80e668eafbaa397a10f0674de379db1ba89f7cf",
    ("linewidth-pipeline", True, "csv"): "3a4ef3d9d62ee983833ee19b1ef2a4de2d0f0f433527187139b6afae367306f9",
    ("linewidth-pipeline", True, "json"): "a28561b1b7496b882db2bac7b8fee533c59e1afad7efa34f644ec06adfbec5a3",
}


@pytest.mark.parametrize("scheme", ["control-sweep", "power-sweep", "flux-sweep", "linewidth-pipeline"])
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "seeded"])
def test_export_bytes_match_golden_digests(scheme, noisy):
    cfg = paper_profile(scheme)
    if noisy:
        cfg = replace(cfg, noise=NoiseParams(sigma_rel=0.01, seed=5))
    result = run_experiment(cfg)
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(result_text(result, fmt).encode("utf-8")).hexdigest()
        assert digest == GOLDEN[(scheme, noisy, fmt)], f"{scheme} {fmt} export bytes changed"


MAGNITUDE_GOLDEN = {
    ("control-sweep", "csv"): "7acf291f89b95516333d14ee05dee955c37af7316e1d5ea0700005e38104cac3",
    ("control-sweep", "json"): "4b0640c4b0d0559166f44cdfa83bda7c0bed77035c7306502ec8e76c2e737d41",
    ("power-sweep", "csv"): "e9f4c17ab5370507e89930dc289179686c515a9c6f642c1bf996965d0dd63038",
    ("power-sweep", "json"): "b99e5a61e8d646b894d00ec40fc9d963e484f2c80262d8fad04a88ec89cdad03",
    ("flux-sweep", "csv"): "871fc3ed1c56ced0527bf7a80ea0e8f4bb6aca7b652e0f8454fd07aefaf300a0",
    ("flux-sweep", "json"): "e899615e35fa64a0275c360d9af7e185356b8ad4365434e0a18df193489e7c53",
}

IDT_GOLDEN = {
    "csv": "e6145fc8ffdaf96918cfef3b89f997dd1d0f0959c78ff8b31d95f910e80b7238",
    "json": "4ba554027ea65b9d055dd258d4a21b4745e1eb5db3f2f9429de4002bd3752244",
}


@pytest.mark.parametrize("scheme", ["control-sweep", "power-sweep", "flux-sweep"])
def test_magnitude_noise_export_bytes_match_golden_digests(scheme):
    cfg = replace(paper_profile(scheme), noise=NoiseParams(sigma_rel=0.01, seed=5, kind="magnitude"))
    result = run_experiment(cfg)
    for fmt in ("csv", "json"):
        digest = hashlib.sha256(result_text(result, fmt).encode("utf-8")).hexdigest()
        assert digest == MAGNITUDE_GOLDEN[(scheme, fmt)], f"{scheme} magnitude-noise {fmt} export bytes changed"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_idt_response_bytes_match_golden_digests(capsys, fmt):
    code = main(["idt", "response", "--np", "25", "--f-idt", "2.26e9", "--k2", "7.11e-4", "--format", fmt])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == IDT_GOLDEN[fmt], f"idt response {fmt} bytes changed"


ORACLE_GOLDEN = {
    (): "431dab7d7d34fdcbe537ddc66c40b4c660c8b072b7c3919a122885490765c8dd",
    ("--grid-count", "51"): "f2fede53576112131e6db690ad360efba99ea02d06f072878310e259edf9d2fc",
}
MASTER_EQUATION_GOLDEN = "0d497222c7e202cb55995caf69843ed797daad9a5908e07235a1347a4e16a37d"
MHZ = 2.0 * math.pi * 1e6


@pytest.mark.parametrize("flags", list(ORACLE_GOLDEN), ids=["default", "grid-51"])
def test_oracle_check_stdout_matches_golden_digests(capsys, flags):
    assert main(["oracle", "check", *flags]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == ORACLE_GOLDEN[flags], f"oracle check {' '.join(flags)} stdout changed"


def test_oracle_probe_move_follows_the_weak_probe_law():
    # the deviation is the weak-probe term, quadratic in the probe: the
    # derived probe's worst deviation is the former 10 kHz one times
    # (Omega_p / 10 kHz)**2, at the same grid point
    atom = paper_profile("control-sweep").atom.build()
    grid = np.linspace(-50.0, 50.0, 21) * MHZ
    controls = np.array([0.0, 6.1, 30.0]) * MHZ
    derived = weak_probe_deviation(atom, grid, grid, controls)
    former = weak_probe_deviation(atom, grid, grid, controls, Omega_p=2.0 * math.pi * 1.0e4)
    assert derived.max_rel == pytest.approx(former.max_rel * (1e-6 * atom.gamma20 / (2.0 * math.pi * 1.0e4)) ** 2,
                                            rel=1e-2)
    assert derived[3:] == former[3:]


def test_master_equation_reflection_matches_golden_digest():
    digest = hashlib.sha256()
    for atom, (delta_p, delta_c, omega_p, omega_c) in golden_atom_drives():
        grid = master_equation_reflection(atom, delta_p, delta_c, omega_p, omega_c)
        one = master_equation_reflection(atom, float(delta_p[0]), delta_c, float(omega_p[0, 0, 0]),
                                         float(omega_c[0, 0]))
        assert grid.shape == (2, 3, 7) and isinstance(one, complex)
        digest.update(grid.tobytes())
        digest.update(np.complex128(one).tobytes())
    assert digest.hexdigest() == MASTER_EQUATION_GOLDEN, "master_equation_reflection bytes changed"
