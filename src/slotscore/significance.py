"""Paired bootstrap comparison of two systems' overall F1 on one gold
corpus, resampling at the note level.

Per-note tallies of both systems come from the scorer's one pass over gold
(``scoring._tally_notes``), which prepares each gold note once for the two;
each repetition then draws notes with replacement, sums the cached tallies,
and records the F1 difference.
The random stream is Philox4x64 keyed by the seed. Repetition i starts at
counter word 1 = i (every other counter word 0), which is the stream of
``Philox(key=seed).advance(i << 64)``. It depends on (seed, i)
only, so a shorter run is a prefix of a longer one. Its notes are the indices
``Generator.integers(0, n, size=n)`` draws from that stream.

``_resample_sums`` does not call ``integers`` per repetition. It takes each
repetition's raw words with one ``random_raw`` call and maps a block of about
16K draws at once by numpy's rule for n <= 2**32: a word gives two 32-bit
values, low half first, and value u becomes note ``(u * n) >> 32`` (32-bit
Lemire). numpy rejects u and reads another value when its leftover
``(u * n) mod 2**32`` is below ``(2**32 - n) % n``; a repetition with such a
draw is drawn again by ``integers`` itself, as is every repetition when
n > 2**32. A guard first draws repetition 0 both ways; if the indices differ,
as they would under a numpy that draws otherwise, ``integers`` serves every
repetition. One ``bincount`` of the block, each repetition's indices offset
by rep * n, gives the note counts, and one product with the per-note totals
gives the sums. A repetition draws n notes, so no product or partial sum
exceeds ``n * max(totals)``; below 2**53 the product runs in float64,
exactly, through BLAS, and above it in int64. Either way the sums are the
same integers, so the deltas are the same bits.

The per-note totals are added straight into one plain cell per prediction,
kept for the whole call, so no note builds a table of its own and no
``PhenomenonKey`` or ``ScoreCounts`` is built for the bootstrap.

numpy is imported only when a bootstrap runs, so scoring never loads it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING

from .schema import AnnotationSchema
from .scoring import _Cells, _tally_notes, prf
from .standoff import Corpus

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BootstrapConfig:
    repetitions: int = 10_000
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        # A float or string would run as another number, or fail only after
        # both systems are scored; an integer type such as numpy's is kept as
        # the int it stands for.
        for name in ("repetitions", "seed"):
            try:
                object.__setattr__(self, name, index(getattr(self, name)))
            except TypeError:
                raise TypeError(
                    f"{name} must be an integer, not {type(getattr(self, name)).__name__}"
                ) from None
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must be in [0, 2**128)")


@dataclass(frozen=True)
class BootstrapResult:
    f1_a: float
    f1_b: float
    observed_delta: float
    p_value: float
    repetitions: int
    seed: int
    alpha: float
    significant: bool
    deltas: tuple[float, ...] | None = None

    def verdict(self) -> str:
        return "statistically different" if self.significant else "not statistically different"


def _note_totals(
    gold: Corpus, preds: Sequence[Corpus], schema: AnnotationSchema
) -> np.ndarray:
    """Per-note (tp, fn, fp) summed across the scorer's plain cells, from one
    pass over gold: one row per gold note in sorted doc_id order, holding
    each prediction's three totals in input order.

    Each prediction keeps one table for the call, every key of which is the
    prediction's one [tp, fn, fp] cell (``_Cells``), so the tally adds a
    note's slots straight into its totals. After each note the cell is read
    into the row and zeroed."""
    import numpy as np

    cells = [[0, 0, 0] for _ in preds]
    tables = [_Cells(lambda key, cell=cell: cell) for cell in cells]
    rows = []
    for _ in _tally_notes(gold, preds, schema, tables):
        row = []
        for cell in cells:
            row += cell
            cell[:] = (0, 0, 0)
        rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3 * len(preds))


def _overall_f1(totals: np.ndarray) -> float:
    tp, fn, fp = (int(x) for x in totals)
    return prf(tp, fn, fp)[2]


def _f1_rows(totals: np.ndarray) -> np.ndarray:
    """F1 of each (tp, fn, fp) row, in prf's operation order with every 0/0
    quotient defined as 0, so each value equals prf's bit for bit."""
    import numpy as np

    tp, fn, fp = totals[:, 0], totals[:, 1], totals[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp != 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn != 0, tp / (tp + fn), 0.0)
        both = precision + recall
        return np.where(both != 0, 2 * precision * recall / both, 0.0)


# Draws per block of repetitions: the block's arrays stay under 1 MB.
_BLOCK_DRAWS = 1 << 14


def _lemire_indices(raw: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The note indices ``Generator.integers(0, n, size=n)`` makes of each row
    of raw Philox words, and which of those draws numpy rejects.

    Each word holds two 32-bit values, low half first, and value u becomes
    note ``(u * n) >> 32``. numpy rejects u when its leftover
    ``(u * n) mod 2**32`` is below ``(2**32 - n) % n``; it then reads one
    more value, so every later index in that row differs from numpy's."""
    import numpy as np

    u32 = raw.astype("<u8", copy=False).view("<u4")[:, :n]
    scaled = np.multiply(u32, np.uint64(n), dtype=np.uint64)
    rejected = scaled.astype(np.uint32) < (2**32 - n) % n
    scaled >>= np.uint64(32)
    return scaled.view(np.int64), rejected


def _count_product(totals: np.ndarray, n: int):
    """The function that takes note counts (rows that sum to ``n``) to their
    sums ``counts @ totals``, as exact integers.

    When ``n * max|totals| < 2**53``, every product and every partial sum is
    an integer below 2**53, which float64 holds exactly in any summation
    order; the product then runs in float64, where BLAS does it, instead of
    numpy's generic int64 loop. Otherwise it stays in int64."""
    import numpy as np

    if n * int(np.abs(totals).max(initial=0)) < 2**53:
        weights = totals.astype(np.float64)
        return lambda counts: counts.astype(np.float64) @ weights
    return lambda counts: counts @ totals


def _resample_sums(totals: np.ndarray, seed: int, repetitions: int) -> np.ndarray:
    """Row rep is ``totals`` summed over the notes repetition rep draws, with
    each note counted as often as it is drawn: one int64 row per repetition."""
    import numpy as np

    n = len(totals)
    # One generator serves every repetition. Assigning the fresh state with
    # counter word 1 = rep also empties its buffered output, so repetition
    # rep draws exactly the stream of Philox(key=seed).advance(rep << 64).
    bit_gen = np.random.Philox(key=seed)
    rng = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    counter = fresh["state"]["counter"]
    # A resample's sums are its note counts (how often each note was drawn)
    # times the per-note totals: exact integers, as a plain sum.
    sums = np.empty((repetitions, totals.shape[1]), dtype=np.int64)
    product = _count_product(totals, n)

    # Advancing by (1 << 64) - ceil(words / 4) after a repetition's words
    # gives the same stream, but a restart by advance() took 2.0-2.3 us and
    # one by state assignment 1.2-1.7 us (numpy 2.4, min of 7 x 10,000).
    def restart(rep: int) -> None:
        counter[1] = rep
        bit_gen.state = fresh

    def from_integers(rep: int) -> None:
        restart(rep)
        sums[rep] = product(np.bincount(rng.integers(0, n, size=n), minlength=n))

    # Guard: repetition 0's indices by both paths, up to its first rejected
    # draw. If a numpy build draws otherwise, numpy's own path serves all.
    words = (n + 1) // 2
    raw_path = n <= 2**32
    if raw_path:
        restart(0)
        expected = rng.integers(0, n, size=n)
        restart(0)
        idx, rejected = _lemire_indices(bit_gen.random_raw(words)[None], n)
        valid = int(rejected[0].argmax()) if rejected.any() else n
        raw_path = np.array_equal(idx[0, :valid], expected[:valid])
    if not raw_path:
        for rep in range(repetitions):
            from_integers(rep)
        return sums

    block = max(1, _BLOCK_DRAWS // n)
    offsets = np.arange(0, block * n, n, dtype=np.int64)[:, None]
    for first in range(0, repetitions, block):
        raw = []
        for rep in range(first, min(first + block, repetitions)):
            restart(rep)
            raw.append(bit_gen.random_raw(words))
        idx, rejected = _lemire_indices(np.concatenate(raw).reshape(len(raw), words), n)
        idx += offsets[: len(raw)]
        counts = np.bincount(idx.ravel(), minlength=idx.size).reshape(idx.shape)
        sums[first : first + len(raw)] = product(counts)
        if rejected.any():
            for rep in np.flatnonzero(rejected.any(axis=1)).tolist():
                from_integers(first + rep)
    return sums


def paired_bootstrap(
    gold: Corpus,
    pred_a: Corpus,
    pred_b: Corpus,
    schema: AnnotationSchema,
    cfg: BootstrapConfig | None = None,
    keep_deltas: bool = False,
) -> BootstrapResult:
    """Two-sided paired bootstrap on overall F1.

    The p-value uses the add-one sign-flip estimator
    ``2 * min(1 + #{delta <= 0}, 1 + #{delta >= 0}) / (repetitions + 1)``,
    clamped to 1, so identical systems report exactly p = 1.0 and no
    comparison reports p = 0.
    """
    import numpy as np

    cfg = cfg or BootstrapConfig()
    if len(gold) == 0:
        raise ValueError("gold corpus is empty")

    # One row per gold note: system A's (tp, fn, fp), then system B's.
    totals = _note_totals(gold, (pred_a, pred_b), schema)

    f1_a = _overall_f1(totals[:, :3].sum(axis=0))
    f1_b = _overall_f1(totals[:, 3:].sum(axis=0))
    observed = f1_a - f1_b

    sums = _resample_sums(totals, cfg.seed, cfg.repetitions)
    deltas = _f1_rows(sums[:, :3]) - _f1_rows(sums[:, 3:])

    at_most = int(np.count_nonzero(deltas <= 0.0))
    at_least = int(np.count_nonzero(deltas >= 0.0))
    p_value = min(1.0, 2 * min(at_most + 1, at_least + 1) / (cfg.repetitions + 1))

    return BootstrapResult(
        f1_a=f1_a,
        f1_b=f1_b,
        observed_delta=observed,
        p_value=p_value,
        repetitions=cfg.repetitions,
        seed=cfg.seed,
        alpha=cfg.alpha,
        significant=p_value < cfg.alpha,
        deltas=tuple(deltas.tolist()) if keep_deltas else None,
    )
