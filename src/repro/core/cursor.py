"""The cursor-based query surface: :class:`QuerySpec` and :class:`QueryResult`.

Backlog assembles the back-reference table *at query time* as a streaming
merge-join precisely so queries stay cheap at any database size; this module
exposes that laziness to callers instead of materialising every answer into
a list.  The surface is a single descriptor + cursor pair:

* :class:`QuerySpec` describes a query declaratively -- block range, version
  window, line/inode filters, live-only flag, limit, and an optional resume
  token -- and is immutable (the ``with_*`` helpers derive new specs).
* :class:`QueryResult` is the lazy cursor :meth:`repro.core.backlog.Backlog.
  select` returns.  Nothing is read until the caller iterates; terminal
  helpers (:meth:`QueryResult.first`, :meth:`~QueryResult.one_or_none`,
  :meth:`~QueryResult.count`, :meth:`~QueryResult.all`) drive the underlying
  pipeline exactly as far as they need.  ``.first()`` on a whole-device range
  reads one reference group and abandons the generator chain; ``.count()``
  never holds more than one :class:`~repro.core.records.BackReference`.

Resume-token contract
---------------------

Pagination is resumable because the query pipeline is key-ordered: results
are emitted in ascending ``(block, inode, offset, line)`` owner order, so the
identity of the last-emitted owner is a complete description of where a scan
stopped.  :attr:`QueryResult.resume_token` packs that identity into an opaque
URL-safe string; feeding it back via :meth:`QuerySpec.after` (or the
``resume_token`` field) re-enters the pipeline *after* that owner:

* The token restarts the gather step at the owner's reference group, not at
  the start of the block range -- partitions and runs wholly before it are
  never probed again.
* Tokens are positional, not snapshots: a resumed page reflects the database
  at resume time.  Checkpoints and maintenance between pages are safe --
  owners that still exist and sort after the token are returned exactly once;
  results the pipeline already emitted are never revisited.
* A token is only meaningful for the block range that produced it; resuming
  outside that range raises :class:`ValueError`, as does a malformed token.
* There is one token format -- ``bkq1.`` followed by the unpadded url-safe
  base64 of the four owner fields -- minted identically by a single engine
  and by a cluster coordinator (routing is by block, so a token names no
  shard).  Any other string, another prefix included, is malformed.
* :attr:`QueryResult.resume_token` is ``None`` once the cursor is exhausted
  (the page ended because the data did, not because the limit was reached).

Equivalence with the legacy surface
-----------------------------------

The four legacy query methods are thin shims over ``select``: filters are
*owner-level* predicates, so ``select(QuerySpec(b, at_version=v))`` returns
the same full-range :class:`~repro.core.records.BackReference` tuples the
post-filtering ``owners_at_version`` always did (``tools/check_api.py`` and
``tests/test_cursor.py`` lock the equivalence down).
"""

from __future__ import annotations

import base64
import struct
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.records import BackReference, ReferenceKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.query import QueryEngine

__all__ = [
    "QuerySpec",
    "QueryResult",
    "encode_resume_token",
    "decode_resume_token",
]

#: Resume tokens pack the last-emitted owner identity as four unsigned
#: 64-bit fields -- the same width the on-disk record fields use.
_TOKEN_STRUCT = struct.Struct("<4Q")

#: Token format tag; bumped if the payload layout ever changes so stale
#: tokens fail loudly instead of resuming at a garbage key.
_TOKEN_PREFIX = "bkq1."


def encode_resume_token(key) -> str:
    """Pack an owner identity into an opaque, URL-safe resume token.

    ``key`` is anything carrying ``block`` / ``inode`` / ``offset`` /
    ``line`` attributes -- a :class:`~repro.core.records.ReferenceKey` or a
    :class:`~repro.core.records.BackReference` result itself.  A single
    engine and a cluster coordinator mint the same token for the same owner.
    """
    payload = _TOKEN_STRUCT.pack(key.block, key.inode, key.offset, key.line)
    return _TOKEN_PREFIX + base64.urlsafe_b64encode(payload).decode("ascii").rstrip("=")


def decode_resume_token(token: str) -> ReferenceKey:
    """Unpack a resume token; raises :class:`ValueError` on malformed input.

    Validation is strict: the token must be exactly what
    :func:`encode_resume_token` produces for the key it decodes to.
    ``validate=True`` matters -- the default decoder silently *discards*
    characters outside the alphabet -- and so does the re-encode: base64
    ignores the spare bits of the last character, so without it a corrupted
    or hand-mangled token could decode to a garbage-but-plausible key and
    silently resume the scan at the wrong owner instead of failing.
    """
    if not isinstance(token, str) or not token.startswith(_TOKEN_PREFIX):
        raise ValueError(f"malformed resume token: {token!r}")
    body = token[len(_TOKEN_PREFIX):]
    try:
        payload = base64.b64decode(body + "=" * (-len(body) % 4),
                                   altchars=b"-_", validate=True)
        key = ReferenceKey(*_TOKEN_STRUCT.unpack(payload))
    except (ValueError, struct.error) as exc:
        # binascii.Error subclasses ValueError, so strict-alphabet failures
        # land here too.
        raise ValueError(f"malformed resume token: {token!r}") from exc
    if encode_resume_token(key) != token:
        raise ValueError(f"malformed resume token: {token!r}")
    return key


def _frozen(values: Optional[Iterable[int]]) -> Optional[FrozenSet[int]]:
    if values is None:
        return None
    return values if isinstance(values, frozenset) else frozenset(values)


@dataclass(frozen=True)
class QuerySpec:
    """A declarative description of one back-reference query.

    Attributes
    ----------
    first_block / num_blocks:
        The physical block range ``[first_block, first_block + num_blocks)``
        to query.  ``QuerySpec(b)`` is the single-block point query.
    version_window:
        Optional half-open ``(lo, hi)`` window of global CP numbers.  An
        owner is returned when at least one of its version ranges overlaps
        the window; the returned :class:`~repro.core.records.BackReference`
        keeps its *full* range set (the legacy ``owners_at_version``
        semantics).  :meth:`at_version` builds the one-version window.
    live_only:
        Return only owners that still reference the block in the live file
        system (some range extends to ``INFINITY``).
    lines / inodes:
        Optional owner filters.  The inode filter is pushed below the
        merge-join (whole reference groups are skipped before any joining or
        clone expansion happens); the line filter is pushed into clone
        expansion (filtered lines never reach masking or grouping, while
        still participating in inheritance resolution).
    limit:
        Stop after this many owners.  Combined with the pipeline's laziness
        this is an early exit, not a truncation: once the limit is reached no
        further run pages are read.
    resume_token:
        Opaque token from a previous :attr:`QueryResult.resume_token`;
        re-enters the key-ordered pipeline after the owner that produced it
        (see the module docstring for the contract).
    """

    first_block: int
    num_blocks: int = 1
    version_window: Optional[Tuple[int, int]] = None
    live_only: bool = False
    lines: Optional[FrozenSet[int]] = None
    inodes: Optional[FrozenSet[int]] = None
    limit: Optional[int] = None
    resume_token: Optional[str] = None

    def __post_init__(self) -> None:
        if self.first_block < 0:
            raise ValueError("first_block must be non-negative")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive when set")
        if self.version_window is not None:
            lo, hi = self.version_window
            if lo >= hi:
                raise ValueError(f"empty or inverted version window [{lo}, {hi})")
            object.__setattr__(self, "version_window", (lo, hi))
        object.__setattr__(self, "lines", _frozen(self.lines))
        object.__setattr__(self, "inodes", _frozen(self.inodes))
        if self.resume_token is not None:
            # Validate eagerly so a stale or foreign token fails at spec
            # construction, not deep inside the pipeline.
            key = decode_resume_token(self.resume_token)
            if not self.first_block <= key.block < self.first_block + self.num_blocks:
                raise ValueError(
                    f"resume token points at block {key.block}, outside the "
                    f"spec's range [{self.first_block}, "
                    f"{self.first_block + self.num_blocks})"
                )

    # ------------------------------------------------------------- deriving

    def at_version(self, version: int) -> "QuerySpec":
        """Owners whose reference existed at CP ``version`` (legacy
        ``owners_at_version`` semantics: full ranges are returned)."""
        return replace(self, version_window=(version, version + 1))

    def live(self) -> "QuerySpec":
        """Owners still referencing the block in the live file system."""
        return replace(self, live_only=True)

    def with_limit(self, limit: int) -> "QuerySpec":
        """Stop after ``limit`` owners (early exit, not truncation)."""
        return replace(self, limit=limit)

    def after(self, resume_token: Optional[str]) -> "QuerySpec":
        """Resume the scan after the owner a previous page stopped at."""
        return replace(self, resume_token=resume_token)

    # ------------------------------------------------------------ interface

    @property
    def resume_key(self) -> Optional[ReferenceKey]:
        """The decoded resume identity, or ``None`` for a fresh scan."""
        if self.resume_token is None:
            return None
        return decode_resume_token(self.resume_token)

    @property
    def is_unfiltered(self) -> bool:
        """True when the spec is a plain range query with no cursor state.

        ``QueryResult.all()`` answers such specs through the engine's
        size-dispatched list path -- the exact code the legacy methods always
        ran -- so the shims keep their byte-identical answers and their
        narrow-query constant factor.
        """
        return (
            self.version_window is None
            and not self.live_only
            and self.lines is None
            and self.inodes is None
            and self.limit is None
            and self.resume_token is None
        )


class QueryResult:
    """A lazy, single-use cursor over one query's back references.

    Created by :meth:`repro.core.backlog.Backlog.select` and by the cluster
    coordinator's :meth:`repro.cluster.ShardedBacklog.select`; nothing is
    read until the cursor is driven.  The cursor is an iterator -- ``for ref
    in result`` streams owners in ``(block, inode, offset, line)`` order --
    and the terminal helpers pull exactly as much as they need.

    ``engine`` is whatever answers the query: a
    :class:`~repro.core.query.QueryEngine` or a coordinator, anything with
    ``open_cursor(spec, *, reopened)`` (a closable owner iterator, counting
    a query unless ``reopened``) and ``query_range(first_block,
    num_blocks)`` (the list surface).

    A cursor is *single use*: iteration state is shared between ``__iter__``,
    the terminal helpers and :attr:`resume_token`, exactly like a file
    object.  Derive a fresh spec (cheap) to re-run a query.
    """

    def __init__(self, engine: "QueryEngine", spec: QuerySpec) -> None:
        self._engine = engine
        self.spec = spec
        self._iterator: Optional[Iterator[Tuple]] = None
        self._emitted = 0
        # The last-emitted owner doubles as the resume identity: its first
        # four elements are exactly the block/inode/offset/line fields a
        # ReferenceKey packs, whichever pipeline (columnar raw tuple or
        # materialised BackReference) produced it.
        self._last: Optional[Tuple] = None
        self._exhausted = False
        self._page_full = False

    # ------------------------------------------------------------ iteration

    def __iter__(self) -> "QueryResult":
        return self

    def _next_raw(self) -> Tuple:
        """Advance the cursor one owner *without* materialising it.

        The engine emits raw owners -- plain ``(block, inode, offset, line,
        ranges)`` tuples from the columnar pipeline, BackReferences from the
        other paths -- and everything cursor-state related (resume identity,
        limits, parking, stats finalisation) only needs their shape.
        :meth:`__next__` materialises for the public surface; wire paths
        (:meth:`all_rows`) skip that entirely.
        """
        if self._exhausted or self._page_full:
            raise StopIteration
        if self._iterator is None:
            # First pull, or a pull after the pipeline was released early
            # (``first()`` / ``close()``): (re)open the engine cursor.  A
            # reopen resumes after the last-emitted owner via the same token
            # machinery pagination uses, so results are never replayed.
            spec = self.spec
            reopened = self._last is not None
            if reopened:
                spec = spec.after(
                    encode_resume_token(ReferenceKey(*self._last[:4])))
                if spec.limit is not None:
                    spec = replace(spec, limit=spec.limit - self._emitted)
            self._iterator = self._engine.open_cursor(spec, reopened=reopened)
        try:
            ref = next(self._iterator)
        except StopIteration:
            self._finish()
            raise
        self._emitted += 1
        self._last = ref
        if self.spec.limit is not None and self._emitted >= self.spec.limit:
            # The page is full; close the pipeline now so its stats are
            # finalised even if the caller never pulls the StopIteration.
            self._page_full = True
            self._close_pipeline()
        return ref

    def __next__(self) -> BackReference:
        ref = self._next_raw()
        if type(ref) is not BackReference:
            # The public materialisation boundary: the columnar pipeline's
            # raw owner tuple becomes a BackReference here and nowhere
            # earlier.
            ref = BackReference._make(ref)
        return ref

    def _finish(self) -> None:
        limit = self.spec.limit
        if limit is None or self._emitted < limit:
            # The pipeline ran out of data before any limit: there is no
            # next page and the token must say so.
            self._exhausted = True
        self._close_pipeline()

    def _close_pipeline(self) -> None:
        if self._iterator is not None:
            self._iterator.close()  # type: ignore[attr-defined]
            self._iterator = None

    def close(self) -> None:
        """Abandon the cursor early, releasing the underlying pipeline."""
        self._close_pipeline()

    # ------------------------------------------------------------ terminals

    def all(self) -> List[BackReference]:
        """Materialise every remaining result as a list.

        For a plain unfiltered spec this delegates to the engine's
        size-dispatched list query (the exact legacy code path), which is
        what makes the legacy methods byte-identical, stats-identical thin
        shims.  Filtered, limited or resumed specs drain the cursor.
        """
        if self._iterator is None and self._emitted == 0 and self.spec.is_unfiltered:
            results = self._engine.query_range(self.spec.first_block, self.spec.num_blocks)
            self._emitted = len(results)
            if results:
                self._last = results[-1]
            self._exhausted = True
            return results
        return list(self)

    def all_rows(self) -> List[Tuple]:
        """Every remaining owner as *raw* tuples, skipping materialisation.

        The wire path's terminal: the cluster worker drains a page with this
        and packs the plain ``(block, inode, offset, line, ranges)`` tuples
        straight into a v2 ``QUERY_PAGE`` frame, so a record that travelled
        the columnar pipeline never becomes a BackReference on the worker at
        all.  Identical drive of the underlying pipeline as :meth:`all` --
        same dispatch (including the unfiltered list-path delegation, whose
        BackReferences are themselves shape-compatible tuples), same stats,
        same resume/exhausted state afterwards.
        """
        if self._iterator is None and self._emitted == 0 and self.spec.is_unfiltered:
            return self.all()
        results: List[Tuple] = []
        append = results.append
        while True:
            try:
                append(self._next_raw())
            except StopIteration:
                return results

    def first(self) -> Optional[BackReference]:
        """The next result, or ``None``; stops reading immediately after it.

        On a wide range this is the early-exit path: the streaming pipeline
        is abandoned after one reference group, leaving the remaining run
        pages unread (the ``cursor.first`` benchmark section quantifies it).
        """
        ref = next(self, None)
        self._close_pipeline()
        return ref

    def one_or_none(self) -> Optional[BackReference]:
        """The single result, ``None`` if empty; raises if more than one."""
        first = next(self, None)
        if first is None:
            return None
        second = next(self, None)
        self._close_pipeline()
        if second is not None:
            raise ValueError(
                f"expected at most one back reference, got several starting "
                f"with {first} and {second}"
            )
        return first

    def count(self) -> int:
        """Number of remaining results, counted without materialising them."""
        return sum(1 for _ in self)

    def limit(self, limit: int) -> "QueryResult":
        """A fresh cursor over the same query capped at ``limit`` owners."""
        if self._iterator is not None or self._emitted:
            raise RuntimeError("limit() must be applied before iteration starts")
        return QueryResult(self._engine, self.spec.with_limit(limit))

    # ------------------------------------------------------------ cursor state

    @property
    def emitted(self) -> int:
        """How many owners this cursor has yielded so far."""
        return self._emitted

    @property
    def exhausted(self) -> bool:
        """True once the underlying data ran out (no next page exists)."""
        return self._exhausted

    @property
    def resume_token(self) -> Optional[str]:
        """Opaque token resuming after the last-emitted owner.

        ``None`` when there is nothing to resume: either the cursor is
        exhausted, or nothing has been emitted yet and the spec carried no
        token of its own (re-issue the original spec instead).
        """
        if self._exhausted:
            return None
        if self._last is None:
            return self.spec.resume_token
        return encode_resume_token(ReferenceKey(*self._last[:4]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "exhausted" if self._exhausted else f"emitted={self._emitted}"
        return f"<QueryResult {self.spec!r} {state}>"
