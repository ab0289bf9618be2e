"""Feedback ledger: raw local trust scores from transactions.

"After a peer completes a transaction, e.g. downloading a music file,
the peer will rate the other based on its experience" (§1).  The ledger
accumulates those ratings per (rater, ratee) pair; the trust matrix is
built from its totals.

Rating conventions follow EigenTrust, which the paper builds on: each
transaction is rated +1 (satisfactory) or -1 (unsatisfactory); the local
score is ``r_ij = max(sat_ij - unsat_ij, 0)``.  Raw real-valued scores
can also be recorded directly (the paper's threat models assign
fractional dishonest scores).

Dirty-row tracking
------------------
Every mutation marks its rater row *dirty*.  A long-lived consumer (the
:class:`~repro.service.ReputationService`) drains the dirty set between
aggregation epochs via :meth:`FeedbackLedger.drain_dirty`, receiving
row-level deltas — the current clamped score row of each mutated rater —
and feeds them to :meth:`~repro.trust.matrix.TrustMatrix.apply_row_deltas`
so the normalized matrix is patched instead of rebuilt.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.errors import ValidationError
from repro.types import TransactionOutcome

__all__ = ["FeedbackLedger"]


class FeedbackLedger:
    """Accumulates local trust scores ``r_ij`` for ``n`` peers.

    Storage is a sparse dict-of-dicts keyed by rater; memory is
    proportional to the number of distinct (rater, ratee) pairs, which
    the power-law feedback distribution keeps near ``n * d_avg``.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self._scores: Dict[int, Dict[int, float]] = {}
        self.transactions = 0
        #: rater rows mutated since the last drain (see drain_dirty)
        self._dirty: Set[int] = set()

    def _check(self, rater: int, ratee: int) -> None:
        if not 0 <= rater < self.n:
            raise ValidationError(f"rater {rater} out of range [0, {self.n})")
        if not 0 <= ratee < self.n:
            raise ValidationError(f"ratee {ratee} out of range [0, {self.n})")
        if rater == ratee:
            raise ValidationError("self-rating is not allowed")

    def record_transaction(
        self, rater: int, ratee: int, outcome: TransactionOutcome
    ) -> None:
        """Record a +1/-1 rated transaction (EigenTrust convention).

        A satisfactory (authentic) transaction adds +1 to the pair's
        running satisfaction balance, an unsatisfactory one -1; the
        stored local score is the balance clamped at zero.
        """
        self._check(rater, ratee)
        delta = 1.0 if outcome is TransactionOutcome.AUTHENTIC else -1.0
        row = self._scores.setdefault(rater, {})
        # Store the raw balance (may be negative); EigenTrust clamps the
        # *score* at read time, but the balance itself is history-long:
        # sat - unsat over all transactions, not a running clamp.
        row[ratee] = row.get(ratee, 0.0) + delta
        self._dirty.add(rater)
        self.transactions += 1

    def set_score(self, rater: int, ratee: int, score: float) -> None:
        """Directly set the raw local score ``r_ij`` (threat models use this)."""
        self._check(rater, ratee)
        if score < 0:
            raise ValidationError(f"raw local scores are non-negative, got {score}")
        row = self._scores.setdefault(rater, {})
        if score == 0.0:  # noqa: GT004 -- exact sentinel: 0.0 is the caller's literal 'erase this score' value, not an accumulated quantity
            row.pop(ratee, None)
        else:
            row[ratee] = float(score)
        self._dirty.add(rater)

    def score(self, rater: int, ratee: int) -> float:
        """Local score ``r_ij = max(balance, 0)`` (EigenTrust clamping)."""
        self._check(rater, ratee)
        return max(0.0, self._scores.get(rater, {}).get(ratee, 0.0))

    def row(self, rater: int) -> Dict[int, float]:
        """Copy of rater's sparse clamped score row ``{ratee: r_ij > 0}``."""
        if not 0 <= rater < self.n:
            raise ValidationError(f"rater {rater} out of range [0, {self.n})")
        return {j: v for j, v in self._scores.get(rater, {}).items() if v > 0}

    def nonzero_pairs(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(rater, ratee, r_ij)`` over all positive scores."""
        for rater, row in self._scores.items():
            for ratee, score in row.items():
                if score > 0:
                    yield (rater, ratee, score)

    # -- dirty-row delta tracking ------------------------------------------

    def clear_dirty(self) -> None:
        """Forget all dirty marks without emitting deltas.

        A consumer that rebuilds its matrix from the *whole* ledger
        (e.g. the first service epoch via
        :meth:`~repro.trust.matrix.TrustMatrix.from_ledger`) calls this
        so already-absorbed mutations are not re-applied as deltas.
        """
        self._dirty.clear()

    def drain_dirty(self) -> Dict[int, Dict[int, float]]:
        """Emit row-level deltas for every dirty rater and reset the set.

        Returns ``{rater: {ratee: r_ij > 0}}`` — the *current* clamped
        score row of each rater mutated since the last drain (a row that
        decayed to all-zeros maps to an empty dict, signalling "now
        dangling").  The format feeds
        :meth:`~repro.trust.matrix.TrustMatrix.apply_row_deltas`
        directly.
        """
        deltas = {rater: self.row(rater) for rater in sorted(self._dirty)}
        self._dirty.clear()
        return deltas

    def __repr__(self) -> str:  # pragma: no cover
        pairs = sum(len(r) for r in self._scores.values())
        return f"FeedbackLedger(n={self.n}, pairs={pairs}, transactions={self.transactions})"
