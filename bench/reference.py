"""Output checks against computations made outside the program.

Nothing here imports coupledpdc.  Each check takes the text a pass
printed and returns a :class:`Verdict`: how many operations (grid points
or oracle lengths) failed, whether any output disagreed with its
reference, and the worst deviation seen.

References:

* continuous device: ``M = exp(iHL)`` from a 32-digit eigendecomposition
  of the generator (mpmath), with the intensities, the coherence and the
  singular values of the signal-idler block ``M[0:2, 2:4]`` taken at the
  same precision;
* cascaded device: the closed form
  ``gamma(psi) = cosh r1 sin psi / sqrt(1 + sin^2 psi sinh^2 r1)``
  and the cascade built as converter, idler mixer, converter;
* extracted schemes: synthesized forward from their printed couplings,
  their vacuum moments must equal the reference moments;
* oracle: exit status, PASS line, every printed deviation within the
  command's tolerance, leakage within the program's documented limit, and
  the program's transfer matrices at the oracle lengths against the
  reference.
"""

import math
import re
from dataclasses import dataclass, field

import mpmath
import numpy as np

mp = mpmath.mp
mp.dps = 32

#: Largest deviation from a reference that still counts as agreement.
#: Working code is at about 1e-12 or better; a 1 % fault misses by 1e-3.
AGREE = 1e-9
#: Largest boundary population the oracle may report (the program's
#: documented ``fock_leakage_max``).
LEAKAGE_MAX = 1e-4
#: The oracle command's tolerance on its printed deviations (the CLI's
#: ``--tolerance`` default, which the benchmark does not change).
ORACLE_TOLERANCE = 1e-3


@dataclass
class Verdict:
    """``worst`` is the largest deviation among the checked outputs; it is
    infinite when no output could be checked, so that a pass that failed
    outright reads as no accuracy at all."""

    ops: int
    failed: int = 0
    wrong: bool = False
    worst: float = 0.0
    notes: list = field(default_factory=list)

    def note(self, text):
        if len(self.notes) < 10:
            self.notes.append(text)


def split_output(text):
    """(exit line, stdout, stderr) of a pass as recorded by worker.py."""
    head, rest = text.split("\n--- stdout\n", 1)
    out, err = rest.rsplit("--- stderr\n", 1)
    return head, out, err


def grid(start, stop, steps):
    step = (stop - start) / (steps - 1)
    return [start + k * step for k in range(steps)]


# ---------------------------------------------------------------------------
# transfer matrices in the mixed basis (A_s1, A_s2, A_i1^+, A_i2^+)

class ContinuousReference:
    """``exp(iHL)`` of the continuous device at extended precision."""

    def __init__(self, gamma1, gamma2, kappa):
        # coupled-mode equations dA/dL = iHA: pair creation s1-i1 (gamma1)
        # and s2-i2 (gamma2), idler exchange i1-i2 (kappa)
        h = [[0, 0, gamma1, 0],
             [0, 0, 0, gamma2],
             [-gamma1, 0, 0, -kappa],
             [0, -gamma2, -kappa, 0]]
        gen = mp.matrix([[mp.mpc(0, 1) * x for x in row] for row in h])
        eigvals, vecs = mp.eig(gen)
        inv = vecs ** -1
        self.eigvals = eigvals
        self.parts = [[[vecs[i, k] * inv[k, j] for j in range(4)]
                       for i in range(4)] for k in range(4)]

    def matrix(self, length):
        """4x4 nested list of mpc entries."""
        e = [mp.exp(lam * mp.mpf(length)) for lam in self.eigvals]
        return [[e[0] * self.parts[0][i][j] + e[1] * self.parts[1][i][j]
                 + e[2] * self.parts[2][i][j] + e[3] * self.parts[3][i][j]
                 for j in range(4)] for i in range(4)]


def _converter(r, signal, idler):
    """Downconverter on (signal, idler): A_s -> cosh r A_s + i sinh r A_i^+."""
    m = mp.eye(4)
    m[signal, signal] = m[idler, idler] = mp.cosh(r)
    m[signal, idler] = mp.mpc(0, 1) * mp.sinh(r)
    m[idler, signal] = -mp.mpc(0, 1) * mp.sinh(r)
    return m


def cascaded_matrix(r1, r2, psi):
    """Converter 1, idler mixer of angle psi, converter 2 (4x4 nested list)."""
    mixer = mp.eye(4)
    mixer[2, 2] = mixer[3, 3] = mp.cos(psi)
    mixer[2, 3] = mixer[3, 2] = -mp.mpc(0, 1) * mp.sin(psi)
    m = _converter(r2, 1, 3) * mixer * _converter(r1, 0, 2)
    return [[m[i, j] for j in range(4)] for i in range(4)]


def signal_figures(m):
    """(n_s1, n_s2, gamma, sorted asinh singular values) of ``m``."""
    n1 = abs(m[0][2]) ** 2 + abs(m[0][3]) ** 2
    n2 = abs(m[1][2]) ** 2 + abs(m[1][3]) ** 2
    cross = mp.conj(m[0][2]) * m[1][2] + mp.conj(m[0][3]) * m[1][3]
    gamma = mp.re(-mp.mpc(0, 1) * cross / mp.sqrt(n1 * n2))
    # singular values of the signal-idler block B = m[0:2, 2:4]
    total = n1 + n2
    det = abs(m[0][2] * m[1][3] - m[0][3] * m[1][2])
    big = (total + mp.sqrt(total ** 2 - 4 * det ** 2)) / 2
    small = det ** 2 / big
    gains = sorted(float(mp.asinh(mp.sqrt(s))) for s in (big, small))
    return float(n1), float(n2), float(gamma), gains


def to_array(m):
    return np.array([[complex(z) for z in row] for row in m])


# ---------------------------------------------------------------------------
# vacuum moments and forward scheme synthesis (vectorized over rows)

def moments(m):
    """Stack of every vacuum second moment of each (4, 4) matrix in ``m``.

    Columns: the pair correlations <A_s A_i> for (s1,i1), (s1,i2),
    (s2,i1), (s2,i2); the normal correlations <A_s1^+ A_s2> and
    <A_i1^+ A_i2>; the four occupations.
    """
    c = np.conj
    cols = [m[:, s, 0] * c(m[:, i, 0]) + m[:, s, 1] * c(m[:, i, 1])
            for s in (0, 1) for i in (2, 3)]
    cols.append(c(m[:, 0, 2]) * m[:, 1, 2] + c(m[:, 0, 3]) * m[:, 1, 3])
    cols.append(m[:, 2, 0] * c(m[:, 3, 0]) + m[:, 2, 1] * c(m[:, 3, 1]))
    for mode in (0, 1):
        cols.append(abs(m[:, mode, 2]) ** 2 + abs(m[:, mode, 3]) ** 2)
    for mode in (2, 3):
        cols.append(abs(m[:, mode, 0]) ** 2 + abs(m[:, mode, 1]) ** 2)
    return np.stack(cols, axis=1)


def _stack(n):
    return np.tile(np.eye(4, dtype=complex), (n, 1, 1))


def direct_converters(g1, g2):
    """Converters s1-i1 (g1) and s2-i2 (g2): A_s -> cosh g A_s + i sinh g A_i^+."""
    m = _stack(len(g1))
    for g, s, i in ((g1, 0, 2), (g2, 1, 3)):
        m[:, s, s] = m[:, i, i] = np.cosh(g)
        m[:, s, i] = 1j * np.sinh(g)
        m[:, i, s] = -1j * np.sinh(g)
    return m


def crossed_converters(g4, g5):
    """Converters s1-i2 (g4) and s2-i1 (g5): A_s -> cosh g A_s + sinh g A_i^+."""
    m = _stack(len(g4))
    for g, s, i in ((g4, 0, 3), (g5, 1, 2)):
        m[:, s, s] = m[:, i, i] = np.cosh(g)
        m[:, s, i] = m[:, i, s] = np.sinh(g)
    return m


def mixers(phi_s, phi_i):
    """Signal mixer (phi_s) and idler mixer (phi_i) of the interferometer."""
    m = _stack(len(phi_s))
    m[:, 0, 0] = m[:, 1, 1] = np.cos(phi_s)
    m[:, 0, 1] = m[:, 1, 0] = 1j * np.sin(phi_s)
    m[:, 2, 2] = m[:, 3, 3] = np.cos(phi_i)
    m[:, 2, 3] = m[:, 3, 2] = -1j * np.sin(phi_i)
    return m


# ---------------------------------------------------------------------------
# sweeps

def _num(field):
    """A CSV field as a float; an empty or malformed field reads as NaN,
    which no check accepts."""
    try:
        return float(field)
    except ValueError:
        return math.nan


def _parse_csv(out, columns, verdict):
    lines = out.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(columns):
        verdict.wrong = True
        verdict.note("CSV header or final line ending is not as documented")
        return []
    return [line.split(",") for line in lines[1:-1]]


def _sweep_rows(text, columns, requested, verdict):
    """Rows of a sweep as dicts, with the grid column checked.

    Returns ``(index, row)`` pairs for the rows whose status is ``ok``;
    other rows count as failed operations.
    """
    head, out, _ = split_output(text)
    if head != "exit=0":
        verdict.failed, verdict.worst = verdict.ops, math.inf
        verdict.note(f"command ended with {head}")
        return []
    rows = _parse_csv(out, columns, verdict)
    if len(rows) != verdict.ops:
        verdict.failed, verdict.wrong = verdict.ops, True
        verdict.worst = math.inf
        verdict.note(f"{len(rows)} rows for a grid of {verdict.ops} points")
        return []
    good = []
    for k, (fields, point) in enumerate(zip(rows, requested)):
        row = dict(zip(columns, fields))
        if len(fields) != len(columns):
            verdict.failed += 1
            verdict.wrong = True
            verdict.note(f"row {k} has {len(fields)} fields")
        elif row["status"] != "ok":
            verdict.failed += 1
            verdict.note(f"row {k}: status {row['status']}")
        elif not abs(_num(row[columns[0]]) - point) <= 1e-12 * max(1.0, abs(point)):
            verdict.failed += 1
            verdict.wrong = True
            verdict.note(f"row {k}: grid value {row[columns[0]]}, expected {point!r}")
        else:
            good.append((k, row))
    if not good:
        verdict.worst = math.inf
    return good


def _judge(verdict, good, checks):
    """Mark each row whose worst deviation exceeds AGREE as failed.

    ``checks`` maps a check's name to its deviation on every good row.
    """
    names = list(checks)
    deviations = np.column_stack([checks[n] for n in names])
    worst = np.max(deviations, axis=1)
    for (k, _), dev, at in zip(good, worst, np.argmax(deviations, axis=1)):
        if not dev <= AGREE:
            verdict.failed += 1
            verdict.wrong = True
            verdict.note(f"row {k}: {names[at]} off by {dev:.3e}")
    verdict.worst = max(verdict.worst, float(np.max(worst)))


def _floats(good, names):
    return np.array([[_num(row[n]) for n in names] for _, row in good])


LENGTH_COLUMNS = ("L", "gamma", "gamma_defined", "n_s1", "n_s2",
                  "n_total_signal", "zou_g1", "zou_g2", "zou_g4", "zou_g5",
                  "uv_angle", "ou_g1", "ou_g2", "ou_phis", "ou_phii",
                  "zou_residual", "ou_residual", "status")
PSI_COLUMNS = ("psi", "gamma", "ou_g1", "ou_g2", "ou_phis", "ou_phii",
               "ou_residual", "status")


def check_length_sweep(text, device, start, stop, steps):
    """fig2-style sweep of the continuous device over L."""
    verdict = Verdict(ops=steps)
    good = _sweep_rows(text, LENGTH_COLUMNS, grid(start, stop, steps), verdict)
    if not good:
        return verdict
    ref = ContinuousReference(*device)
    mats, figs = [], []
    for _, row in good:
        m = ref.matrix(float(row["L"]))
        mats.append(to_array(m))
        figs.append(signal_figures(m))
    mats = np.array(mats)
    n1, n2, gamma, gains = (np.array(x) for x in zip(*figs))
    v = _floats(good, ("n_s1", "n_s2", "n_total_signal", "gamma",
                       "gamma_defined", "zou_g1", "zou_g2", "zou_g4",
                       "zou_g5", "uv_angle", "ou_g1", "ou_g2", "ou_phis",
                       "ou_phii"))
    ref_moments = moments(mats)
    zou = moments(crossed_converters(v[:, 7], v[:, 8])
                  @ direct_converters(v[:, 5], v[:, 6]))
    ou = moments(mixers(v[:, 12], v[:, 13])
                 @ direct_converters(v[:, 10], v[:, 11]))
    u_dot_v = v[:, 5] * v[:, 8] - v[:, 6] * v[:, 7]
    u_cross_v = -v[:, 5] * v[:, 6] - v[:, 7] * v[:, 8]
    angle_gap = np.abs(np.angle(np.exp(1j * (v[:, 9]
                                             - np.arctan2(u_cross_v, u_dot_v)))))
    _judge(verdict, good, {
        "n_s1": np.abs(v[:, 0] - n1) / n1,
        "n_s2": np.abs(v[:, 1] - n2) / n2,
        "n_total_signal": np.abs(v[:, 2] - (v[:, 0] + v[:, 1])) / v[:, 2],
        "gamma": np.abs(v[:, 3] - gamma),
        "gamma_defined, |gamma| <= 1":
            np.abs(v[:, 4] - 1.0) + np.maximum(np.abs(v[:, 3]) - 1.0, 0.0),
        "ou gains": np.max(np.abs(np.sort(np.abs(v[:, 10:12]), axis=1)
                                  - gains), axis=1),
        "four-converter moments": np.max(np.abs(zou - ref_moments), axis=1),
        "interferometer moments": np.max(np.abs(ou - ref_moments), axis=1),
        "uv_angle": angle_gap,
    })
    return verdict


def check_psi_sweep(text, r1, r2, start, stop, steps):
    """fig7-style sweep of the cascaded device over psi."""
    verdict = Verdict(ops=steps)
    good = _sweep_rows(text, PSI_COLUMNS, grid(start, stop, steps), verdict)
    if not good:
        return verdict
    mats, gains, closed = [], [], []
    for _, row in good:
        psi = float(row["psi"])
        m = cascaded_matrix(r1, r2, psi)
        mats.append(to_array(m))
        gains.append(signal_figures(m)[3])
        s = math.sin(psi)
        closed.append(math.cosh(r1) * s / math.sqrt(1.0 + (s * math.sinh(r1)) ** 2))
    v = _floats(good, ("gamma", "ou_g1", "ou_g2", "ou_phis", "ou_phii"))
    ou = moments(mixers(v[:, 3], v[:, 4]) @ direct_converters(v[:, 1], v[:, 2]))
    _judge(verdict, good, {
        "gamma": np.abs(v[:, 0] - np.array(closed)),
        "ou gains": np.max(np.abs(np.sort(np.abs(v[:, 1:3]), axis=1)
                                  - np.array(gains)), axis=1),
        "interferometer moments": np.max(np.abs(ou - moments(np.array(mats))),
                                         axis=1),
    })
    return verdict


# ---------------------------------------------------------------------------
# oracle

_ORACLE_LINE = re.compile(
    r"L=(\S+) dintensity=(\S+) (?:dgamma=(\S+)|gamma=undefined \(skipped\)) "
    r"leakage=(\S+)")


def check_oracle(text, matrices, device, lengths):
    """oracle-check: one operation per length.

    ``matrices`` are the program's transfer matrices at ``lengths`` as
    nested [re, im] lists; the worst printed deviation is the verdict's
    ``worst``.  The result lines are checked whatever the command's
    verdict.  A command that prints FAIL, or ends other than with exit
    status 0 and the PASS line, is wrong: the oracle's purpose is the
    cross-check, and every length it did not pass fails.
    """
    verdict = Verdict(ops=len(lengths))
    head, out, err = split_output(text)
    lines = out.split("\n")
    passed = (head == "exit=0"
              and f"PASS (tolerance {ORACLE_TOLERANCE:g})" in lines)
    if not passed:
        verdict.wrong = True
        verdict.note(f"command ended with {head}: "
                     f"{(out + err).strip()[-200:]}")
    ref = ContinuousReference(*device)
    found = [_ORACLE_LINE.fullmatch(line) for line in lines]
    found = [m for m in found if m]
    if len(found) > len(lengths) or (passed and len(found) < len(lengths)):
        verdict.failed, verdict.wrong = verdict.ops, True
        verdict.worst = math.inf
        verdict.note(f"{len(found)} result lines for {len(lengths)} lengths")
        return verdict
    for length, match, raw in zip(lengths, found, matrices):
        printed = [float(match.group(2)), float(match.group(3) or 0.0)]
        leakage = float(match.group(4))
        program = np.array([[complex(*z) for z in row] for row in raw])
        tm_gap = float(np.max(np.abs(program - to_array(ref.matrix(length)))))
        verdict.worst = max(verdict.worst, *printed)
        if float(match.group(1)) != length:
            verdict.failed += 1
            verdict.wrong = True
            verdict.note(f"printed L={match.group(1)} for {length!r}")
        elif not max(printed) <= ORACLE_TOLERANCE \
                or not leakage <= LEAKAGE_MAX or not tm_gap <= AGREE:
            verdict.failed += 1
            verdict.wrong = True
            verdict.note(f"L={length!r}: deviations {printed}, leakage "
                         f"{leakage:.3e}, transfer-matrix gap {tm_gap:.3e}")
        elif not passed:
            # the line is within tolerance, but the command as a whole
            # did not pass, so no length of it counts as done
            verdict.failed += 1
    # lengths the command never reached (it stopped early) fail, and with
    # nothing printed there is no accuracy to report
    verdict.failed += len(lengths) - len(found)
    if not found:
        verdict.worst = math.inf
    return verdict
