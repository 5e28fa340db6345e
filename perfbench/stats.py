"""Pure helpers of the benchmark: percentiles, paper fidelity, result
fingerprints and per-layer attribution of a ``cProfile`` run.

Nothing here imports ``repro``; the tests exercise it on synthetic input.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# -- percentiles -------------------------------------------------------------

#: Percentiles the benchmark may report, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` percentile."""
    return math.floor(n * (100.0 - pct) / 100.0 + 1e-9)


def highest_reportable(n: int) -> Optional[float]:
    """The highest candidate percentile with >= ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median has fewer."""
    best = None
    for pct in CANDIDATE_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# -- paper fidelity ----------------------------------------------------------

#: Figure 2 of the paper, 96 processes, no query sync: WW-List's speed-up
#: over each other strategy (+364%, +33%, +75%).
PAPER_96P_SPEEDUP = {"mw": 3.64, "ww-posix": 0.33, "ww-coll": 0.75}


def paper_ratio_err(elapsed: Mapping[str, float]) -> float:
    """Mean over mw, ww-posix and ww-coll of |ln((1+measured)/(1+paper))|,
    where ``measured`` is WW-List's speed-up over that strategy computed
    from simulated elapsed seconds (``elapsed[s] / elapsed["ww-list"] - 1``).
    """
    base = elapsed["ww-list"]
    errs = [
        abs(math.log((elapsed[s] / base) / (1.0 + paper)))
        for s, paper in PAPER_96P_SPEEDUP.items()
    ]
    return sum(errs) / len(errs)


# -- fingerprints ------------------------------------------------------------


def _canon(value) -> str:
    """Exact, order-stable text for nested simulated results."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Mapping):
        return "{" + ",".join(
            f"{_canon(k)}:{_canon(value[k])}" for k in sorted(value, key=str)
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    return repr(value)


def digest(value) -> str:
    """SHA-256 of the canonical text of ``value`` (hex)."""
    return hashlib.sha256(_canon(value).encode()).hexdigest()


def combine(digests: Iterable[str]) -> str:
    """One fingerprint for a sequence of per-simulation digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


# -- per-layer attribution of a cProfile run ---------------------------------

#: Profile key: ``(filename, first line, function name)``; builtins have
#: filename ``"~"``.
FuncKey = Tuple[str, int, str]
#: ``pstats`` entry: ``(cc, nc, tt, ct, callers)`` with
#: ``callers[caller] = (nc, cc, tt, ct)``.
StatsMap = Mapping[FuncKey, tuple]

OTHER = "other"


def attribute_self_time(
    stats: StatsMap, layer_of: Callable[[str], Optional[str]]
) -> Dict[str, float]:
    """Sum self time (``tt``) per layer.

    ``layer_of(filename)`` names the layer that owns a function, or returns
    ``None`` for a foreign function (C builtins such as ``heapq``, the
    standard library).  A foreign function's self time is charged to its
    callers' layers in proportion to the self time it spent under each
    caller, recursively through foreign callers; time that reaches no
    layer (roots, cycles among foreign functions) goes to ``"other"``.
    """
    shares_of: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey, path: frozenset) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares_of:
            return shares_of[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        if func in path or not callers:
            return {OTHER: 1.0}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            # Too fast for the timer under every caller: split by calls.
            weights = {c: float(v[0]) for c, v in callers.items()}
            total = sum(weights.values()) or 1.0
        out: Dict[str, float] = {}
        for caller, w in weights.items():
            for layer, frac in shares(caller, path | {func}).items():
                out[layer] = out.get(layer, 0.0) + frac * w / total
        shares_of[func] = out
        return out

    totals: Dict[str, float] = {}
    for func, entry in stats.items():
        tt = entry[2]
        if not tt:
            continue
        for layer, frac in shares(func, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + tt * frac
    return totals


def repro_layer_of(package_layer: Mapping[str, str]) -> Callable[[str], Optional[str]]:
    """``layer_of`` for files of the program and of the benchmark.

    A file under ``src/repro/<package>/`` belongs to
    ``package_layer[package]`` (``"other"`` for unlisted packages and
    top-level modules); a file of the benchmark belongs to ``"other"``;
    everything else is foreign.
    """

    def layer_of(filename: str) -> Optional[str]:
        path = filename.replace("\\", "/")
        cut = path.rfind("/src/repro/")
        if cut >= 0:
            rest = path[cut + len("/src/repro/"):]
            package = rest.split("/", 1)[0] if "/" in rest else ""
            return package_layer.get(package, OTHER)
        if "/perfbench/" in path:
            return OTHER
        return None

    return layer_of


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median over runs, quartiles as ``statistics.quantiles``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
