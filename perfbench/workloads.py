"""The three benchmark workloads: their set-up, operations and output checks.

Each workload is a closed loop with one client: an operation starts when the
previous one has returned.  The seed only permutes the order of the
operations within each pass.  Their inputs are fixed, so every output can be
checked against the references in reference.json, which make_reference.py
recorded at the seed commit.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Tolerances of the full-dynamics checks.  Endpoints are not compared byte for
# byte: the BLAS thread count alone moves the NOR (1,0) endpoint in the 13th
# digit.
ENDPOINT_ABS_TOL = 1e-9       # |beta_z(tau) - reference|
SIGMA_REL_TOL = 1e-6          # |sigma(tau) - reference| / |reference|
DIAG_ABS_TOL = 1e-9           # max |diag(rho) - reference|
STEADY_RESIDUAL_TOL = 1e-10   # max |L[rho]| of a steady state
HERMITIAN_TOL = 1e-12         # max |rho - rho^dagger|
TRACE_TOL = 1e-7              # |Tr rho - 1| (BDF drifts ~1e-8 over 1e8)
PSD_TOL = 1e-9                # smallest eigenvalue >= -PSD_TOL
SIGMA_STEP_TOL = 1e-9         # sigma may fall by at most this between samples

GATE_TABLES = {"nor": (2, lambda b: int(not any(b))),
               "maj3": (3, lambda b: int(sum(b) >= 2)),
               "xor": (2, lambda b: b[0] ^ b[1])}

TABLE_FILES = {"nor.tt": "0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 0\n",
               "xor.tt": "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n"}

# Machine files every CLI workload reads; written during set-up.
MACHINE_FILES = (
    ("design", "--gate", "NOR", "--alpha", "20", "--out", "nor.json"),
    ("design", "--gate", "MAJ3", "--alpha", "10", "--out", "maj3.json"),
    ("design", "--table", "xor.tt", "--layers", "2,1", "--seed", "7",
     "--out", "xor.json"),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, run in a work directory holding the set-up files."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    gate: str | None = None        # truth table that decoded outputs must match
    bits: tuple[int, ...] = ()     # input row of a `steady` command


def _cli_session_commands() -> list[Command]:
    cmds = [
        # NOR is trained from its truth table, so train_perceptron runs too.
        Command("design-nor", ("design", "--table", "nor.tt",
                               "--out", "out/nor.json"), ("out/nor.json",)),
        Command("design-maj3", ("design", "--gate", "MAJ3", "--alpha", "10",
                                "--out", "out/maj3.json"), ("out/maj3.json",)),
        Command("design-xor", ("design", "--table", "xor.tt", "--layers", "2,1",
                               "--seed", "7", "--out", "out/xor.json"),
                ("out/xor.json",)),
    ]
    for gate, (n, _) in GATE_TABLES.items():
        for bits in itertools.product((0, 1), repeat=n):
            cmds.append(Command(
                f"steady-{gate}-{''.join(map(str, bits))}",
                ("steady", f"{gate}.json", "--inputs", *map(str, bits), "--json"),
                gate=gate, bits=bits))
    cmds.append(Command("simulate-nor-10",
                        ("simulate", "nor.json", "--inputs", "1", "0", "--tau",
                         "1e8", "--mode", "quasi", "--out", "out/traj.csv"),
                        ("out/traj.csv",)))
    for gate in GATE_TABLES:
        cmds.append(Command(f"verify-{gate}",
                            ("verify", f"{gate}.json", "--gate", gate.upper()),
                            gate=gate))
    cmds.append(Command("tradeoff-not-eps1",
                        ("tradeoff", "--gate", "NOT", "--knob", "eps1", "--grid",
                         "2,5,10,20", "--tau", "1e8", "--C", "0.05", "--delta",
                         "0.1", "--out", "out/tradeoff-not.csv"),
                        ("out/tradeoff-not.csv",)))
    cmds.append(Command("tradeoff-maj3-alpha",
                        ("tradeoff", "--gate", "MAJ3", "--knob", "alpha", "--grid",
                         "2,5,10,20", "--out", "out/tradeoff-maj3.csv"),
                        ("out/tradeoff-maj3.csv",)))
    return cmds


SWEEPS = [
    Command("sweep-nor", ("sweep", "nor.json", "--grid", "0:1:301", "--band",
                          "additive", "--out", "out/sweep-nor.csv"),
            ("out/sweep-nor.csv",), gate="nor"),
    Command("sweep-maj3", ("sweep", "maj3.json", "--grid", "0:1:41", "--band",
                           "additive", "--out", "out/sweep-maj3.csv"),
            ("out/sweep-maj3.csv",), gate="maj3"),
    Command("sweep-xor", ("sweep", "xor.json", "--grid", "0:1:201", "--band",
                          "additive", "--out", "out/sweep-xor.csv"),
            ("out/sweep-xor.csv",), gate="xor"),
]
SWEEP_POINTS = 301 ** 2 + 41 ** 3 + 201 ** 2


@dataclass
class Op:
    """One operation of a workload: `run` does it, `check` lists what is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def _cwd(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_cli_in_process(argv, workdir: str) -> tuple[int, bytes]:
    """`thermoneuron.cli.main(argv)` in `workdir`; returns (exit code, stdout)."""
    from thermoneuron import cli
    out, err = io.StringIO(), io.StringIO()
    with _cwd(workdir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def run_cli_subprocess(argv, workdir: str) -> tuple[int, bytes, int]:
    """`python -m thermoneuron.cli argv` in `workdir`.

    Returns (exit code, stdout, peak RSS of the child in KiB).  The child is
    reaped with wait4 so its own resource usage is read, not the sum over
    all children.
    """
    with open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "thermoneuron.cli", *argv],
                                cwd=workdir, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _file_problems(cmd: Command, ref: dict, workdir: str) -> tuple[list[str], dict]:
    problems, contents = [], {}
    for rel in cmd.outputs:
        try:
            with open(os.path.join(workdir, rel), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problems.append(f"{cmd.name}: cannot read {rel}: {exc}")
            continue
        contents[rel] = data
        if sha256(data) != ref["files"].get(rel):
            problems.append(f"{cmd.name}: {rel} differs from the reference")
    return problems, contents


def check_command(cmd: Command, ref: dict, workdir: str, code: int,
                  stdout: bytes) -> list[str]:
    """Exit code 0, stdout and files byte-identical to the reference, and
    decoded outputs equal to the gate's truth table."""
    if code != 0:
        return [f"{cmd.name}: exit code {code}"]
    problems = []
    if sha256(stdout) != ref["stdout"]:
        problems.append(f"{cmd.name}: stdout differs from the reference")
    file_problems, contents = _file_problems(cmd, ref, workdir)
    problems += file_problems
    if cmd.gate is None:
        return problems
    n, truth = GATE_TABLES[cmd.gate]
    verb = cmd.argv[0]
    if verb == "steady":
        try:
            decoded = json.loads(stdout)["decoded"]
        except (ValueError, KeyError) as exc:
            return problems + [f"{cmd.name}: unreadable output: {exc}"]
        if decoded != truth(cmd.bits):
            problems.append(f"{cmd.name}: decoded {decoded!r}, "
                            f"expected {truth(cmd.bits)}")
    elif verb == "verify":
        if f"{1 << n}/{1 << n} rows correct".encode() not in stdout:
            problems.append(f"{cmd.name}: not every row verified correct")
    elif verb == "sweep":
        problems += _corner_problems(cmd, contents.get(cmd.outputs[0], b""), n, truth)
    return problems


def _corner_problems(cmd: Command, csv: bytes, n: int, truth) -> list[str]:
    """Rail corners of a sweep (every input exactly 0 or 1) decode to the table."""
    seen = {}
    for line in csv.decode("utf-8").splitlines()[2:]:
        cells = line.split(",")
        if all(c in ("0", "1") for c in cells[:n]):
            seen[tuple(int(c) for c in cells[:n])] = cells[-1]
    problems = []
    for bits in itertools.product((0, 1), repeat=n):
        got = seen.get(bits)
        if got != str(truth(bits)):
            problems.append(f"{cmd.name}: corner {bits} decoded {got!r}, "
                            f"expected {truth(bits)}")
    return problems


def prepare_workdir(workdir: str) -> None:
    """Truth tables and machine files that the CLI workloads read."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    for name, text in TABLE_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in MACHINE_FILES:
        code, _ = run_cli_in_process(argv, workdir)
        if code != 0:
            raise RuntimeError(f"set-up command {' '.join(argv)} exited {code}")


# --------------------------------------------------------------------------
# full-dynamics


TAU = 1e8
BETA_Z0 = 0.5
EVOLVE_CASES = (("NOT", (0.0,)), ("NOT", (1.0,)), ("NOR", (1.0, 0.0)),
                ("NOR", (1.0, 1.0)))
STEADY_CASES = (("NOT", 8), ("NOR", 16), ("MAJ3", 32))
MASTER_HORIZON = 1e3


def case_label(gate: str, row) -> str:
    return f"{gate}-{''.join(str(int(b)) for b in row)}"


def density_problems(rho, what: str) -> list[str]:
    """Hermitian, unit trace and positive semidefinite, within the tolerances."""
    import numpy as np
    problems = []
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITIAN_TOL:
        problems.append(f"{what}: not Hermitian ({herm:.2e})")
    trace = abs(complex(np.trace(rho)) - 1.0)
    if trace > TRACE_TOL:
        problems.append(f"{what}: trace off by {trace:.2e}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < -PSD_TOL:
        problems.append(f"{what}: negative eigenvalue {low:.2e}")
    return problems


def sigma_problems(sigma, what: str) -> list[str]:
    import numpy as np
    drop = float(np.diff(sigma).min()) if len(sigma) > 1 else 0.0
    return [f"{what}: sigma decreases by {-drop:.2e}"] if drop < -SIGMA_STEP_TOL else []


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


class DynamicsCases:
    """Machines of the full-dynamics workload and one operation per case."""

    def __init__(self):
        from thermoneuron import designer, neuron
        self.machines = {g: designer.preset(g) for g in ("NOT", "NOR", "MAJ3")}
        # The modest NOT collector of the quantum tests (gaps 2, 1, 1): an
        # explicit integrator reaches t = 1e3 on it in a few thousand steps.
        self.small_not = neuron.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0, mu=1e-4)

    def evolve(self, mode: str, gate: str, row):
        from thermoneuron import dynamics
        fn = dynamics.evolve_full if mode == "full" else dynamics.evolve_quasi_static
        return fn(self.machines[gate], row, BETA_Z0, TAU)

    def steady(self, gate: str):
        """Steady state of the collector generator, inputs on the hot rail."""
        from thermoneuron import dynamics, quantum
        spec = self.machines[gate]
        reg = dynamics.collector_register(spec)
        h0, hint = dynamics.collector_hamiltonian(spec)
        contacts = dynamics.collector_contacts(spec, (0.0,) * spec.n, BETA_Z0)
        rhs = lambda r: quantum.lindblad_rhs(r, h0, hint, contacts, reg)
        return quantum.steady_state(rhs, reg.dim), rhs

    def master(self):
        """Explicit integration of the small NOT collector to t = 1e3."""
        from thermoneuron import dynamics, quantum
        spec = self.small_not
        reg = dynamics.collector_register(spec)
        h0, hint = dynamics.collector_hamiltonian(spec)
        contacts = dynamics.collector_contacts(spec, (0.3,), BETA_Z0)
        calls = [0]

        def rhs(r):
            calls[0] += 1
            return quantum.lindblad_rhs(r, h0, hint, contacts, reg)

        rho0 = quantum.gibbs_register(reg, (1.0, 0.3, BETA_Z0))
        return quantum.integrate_master(rho0, rhs, MASTER_HORIZON), calls[0]

    def ops(self, ref: dict) -> list[Op]:
        import numpy as np
        ops = []
        for gate, row in EVOLVE_CASES:
            label = case_label(gate, row)
            for mode in ("full", "quasi"):
                name = f"{mode}-{label}"
                want = ref[name]

                def check(traj, name=name, want=want, mode=mode):
                    problems = []
                    if not _close(traj.endpoint, want["endpoint"], ENDPOINT_ABS_TOL):
                        problems.append(f"{name}: endpoint {traj.endpoint!r} vs "
                                        f"reference {want['endpoint']!r}")
                    if not _close(float(traj.sigma[-1]), want["sigma"],
                                  SIGMA_REL_TOL * abs(want["sigma"])):
                        problems.append(f"{name}: sigma {traj.sigma[-1]!r} vs "
                                        f"reference {want['sigma']!r}")
                    problems += sigma_problems(traj.sigma, name)
                    if mode == "full":
                        problems += density_problems(traj.final_rho_collector,
                                                     f"{name} collector")
                        problems += density_problems(traj.final_rho_modulator,
                                                     f"{name} modulator")
                    return problems

                ops.append(Op(name, lambda mode=mode, gate=gate, row=row:
                              self.evolve(mode, gate, row), check))
        for gate, dim in STEADY_CASES:
            name = f"steady-d{dim}"
            want = ref[name]

            def check(result, name=name, want=want):
                rho, rhs = result
                problems = density_problems(rho, name)
                residual = float(np.abs(rhs(rho)).max())
                if residual > STEADY_RESIDUAL_TOL:
                    problems.append(f"{name}: residual {residual:.2e}")
                diff = float(np.abs(np.diag(rho).real - want["diag"]).max())
                if diff > DIAG_ABS_TOL:
                    problems.append(f"{name}: diagonal off the reference by {diff:.2e}")
                return problems

            ops.append(Op(name, lambda gate=gate: self.steady(gate), check))

        def check_master(result, want=ref["integrate-master"]):
            rho, _ = result
            problems = density_problems(rho, "integrate-master")
            diff = float(np.abs(np.diag(rho).real - want["diag"]).max())
            if diff > DIAG_ABS_TOL:
                problems.append(f"integrate-master: diagonal off the reference "
                                f"by {diff:.2e}")
            return problems

        ops.append(Op("integrate-master", self.master, check_master))
        return ops


def full_quasi_gaps(results: dict) -> dict:
    """|beta_z(tau) full - beta_z(tau) quasi-static|, per case.

    Reported, never counted as an error: on the rows whose output is 0 the two
    disagree at the seed commit.
    """
    gaps = {}
    for gate, row in EVOLVE_CASES:
        label = case_label(gate, row)
        full, quasi = results.get(f"full-{label}"), results.get(f"quasi-{label}")
        if full is not None and quasi is not None:
            gaps[label] = abs(full.endpoint - quasi.endpoint)
    return gaps


# --------------------------------------------------------------------------
# Workload table


class CliSession:
    name = "cli-session"
    min_passes = 1

    def __init__(self):
        self.commands = _cli_session_commands()

    def setup(self, workdir: str):
        prepare_workdir(workdir)
        code, _ = run_cli_in_process(
            ("steady", "nor.json", "--inputs", "0", "0", "--json"), workdir)
        if code != 0:
            raise RuntimeError(f"warm-up command exited {code}")

    def ops(self, workdir: str, ref: dict, in_process: bool, rss: list) -> list[Op]:
        ops = []
        for cmd in self.commands:
            if in_process:
                run = lambda cmd=cmd: run_cli_in_process(cmd.argv, workdir)
            else:
                def run(cmd=cmd):
                    code, out, kib = run_cli_subprocess(cmd.argv, workdir)
                    rss.append(kib)
                    return code, out
            check = (lambda res, cmd=cmd:
                     check_command(cmd, ref[cmd.name], workdir, *res))
            ops.append(Op(cmd.name, run, check))
        return ops


class TransferSweep:
    name = "transfer-sweep"
    min_passes = 10

    def setup(self, workdir: str):
        prepare_workdir(workdir)
        code, _ = run_cli_in_process(
            ("sweep", "nor.json", "--grid", "0:1:11", "--band", "additive",
             "--out", "out/warm-up.csv"), workdir)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}")

    def ops(self, workdir: str, ref: dict, in_process: bool, rss: list) -> list[Op]:
        return [Op(cmd.name,
                   lambda cmd=cmd: run_cli_in_process(cmd.argv, workdir),
                   lambda res, cmd=cmd: check_command(cmd, ref[cmd.name], workdir, *res))
                for cmd in SWEEPS]


class FullDynamics:
    name = "full-dynamics"
    min_passes = 2

    def setup(self, workdir: str):
        self.cases = DynamicsCases()
        # The first SVD in a process pays for BLAS start-up; keep it here.
        self.cases.steady("NOT")

    def ops(self, workdir: str, ref: dict, in_process: bool, rss: list) -> list[Op]:
        return self.cases.ops(ref)


WORKLOADS = {w.name: w for w in (CliSession, TransferSweep, FullDynamics)}
