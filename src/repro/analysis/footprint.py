"""Per-opcode static footprints: register and memory read/write sets.

A :class:`Footprint` over-approximates, across *all* paths of an ITL
trace, which registers an instruction may read or write and which memory
it may touch.  Memory accesses are abstracted as intervals anchored at the
initial value of a base register (``[X1 + 8, X1 + 16)``) when the address
term has that shape, as absolute intervals when the address is concrete,
and as an "unknown" access otherwise — unknown accesses conservatively
interfere with every other memory access.

Two consumers:

- the parallel scheduler groups provably independent blocks with
  :func:`interference_groups` (so a cache-cold group can be retried or
  budgeted as a unit without re-running unrelated blocks);
- the trace cache coarsens keys with :func:`trace_read_regs`: a trace
  generated under assumptions ``A`` is reusable under assumptions ``B``
  whenever ``A`` and ``B`` agree on the registers the trace actually
  reads — execution is deterministic given the constraints over the read
  set, so the replayed run would emit the identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..itl import events as E
from ..itl.events import Reg
from ..itl.trace import Trace
from ..smt.builder import _decompose_linear
from ..smt.terms import Term

__all__ = [
    "Footprint",
    "MemRegion",
    "block_footprints",
    "footprint_of_trace",
    "interference_groups",
    "may_interfere",
    "trace_read_regs",
]


@dataclass(frozen=True, order=True)
class MemRegion:
    """A byte interval ``[lo, hi)`` relative to a base register's *initial*
    value (``base=None`` means absolute addresses)."""

    base: Reg | None
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ValueError(f"empty region [{self.lo}, {self.hi})")

    def __str__(self) -> str:
        anchor = str(self.base) if self.base is not None else ""
        return f"[{anchor}{self.lo:+#x}, {anchor}{self.hi:+#x})"

    def overlaps(self, other: "MemRegion") -> bool:
        """Definite-or-possible overlap.  Regions with *different* known
        anchors may still alias (nothing relates two registers' initial
        values statically), so only identical anchors admit a precise
        disjointness argument."""
        if self.base != other.base:
            return True
        return self.lo < other.hi and other.lo < self.hi


# ``order=True`` needs comparable fields; sort key spells out the Reg.
def _region_key(r: MemRegion) -> tuple:
    return (str(r.base) if r.base is not None else "", r.lo, r.hi)


def _coalesce(regions: list[MemRegion]) -> tuple[MemRegion, ...]:
    """Sort and merge overlapping/adjacent same-anchor intervals."""
    out: list[MemRegion] = []
    for r in sorted(regions, key=_region_key):
        if out and out[-1].base == r.base and r.lo <= out[-1].hi:
            if r.hi > out[-1].hi:
                out[-1] = MemRegion(r.base, out[-1].lo, r.hi)
        else:
            out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class Footprint:
    """The static effect over-approximation of one instruction (or block)."""

    reg_reads: frozenset[Reg] = frozenset()
    reg_writes: frozenset[Reg] = frozenset()
    mem_reads: tuple[MemRegion, ...] = ()
    mem_writes: tuple[MemRegion, ...] = ()
    #: Memory accesses whose address had no ``base ± offset`` shape; each
    #: must be assumed to touch arbitrary memory (finding code ``FP001``).
    unknown_reads: int = 0
    unknown_writes: int = 0

    @property
    def regs(self) -> frozenset[Reg]:
        return self.reg_reads | self.reg_writes

    @property
    def touches_memory(self) -> bool:
        return bool(
            self.mem_reads
            or self.mem_writes
            or self.unknown_reads
            or self.unknown_writes
        )

    def union(self, other: "Footprint") -> "Footprint":
        return Footprint(
            self.reg_reads | other.reg_reads,
            self.reg_writes | other.reg_writes,
            _coalesce(list(self.mem_reads + other.mem_reads)),
            _coalesce(list(self.mem_writes + other.mem_writes)),
            self.unknown_reads + other.unknown_reads,
            self.unknown_writes + other.unknown_writes,
        )

    def __str__(self) -> str:
        def regs(s):
            return "{" + ", ".join(sorted(map(str, s))) + "}"

        parts = [f"reads {regs(self.reg_reads)}", f"writes {regs(self.reg_writes)}"]
        if self.mem_reads or self.unknown_reads:
            extra = " +unknown" * bool(self.unknown_reads)
            parts.append(
                "loads " + ", ".join(map(str, self.mem_reads)) + extra
            )
        if self.mem_writes or self.unknown_writes:
            extra = " +unknown" * bool(self.unknown_writes)
            parts.append(
                "stores " + ", ".join(map(str, self.mem_writes)) + extra
            )
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Inference.
# ---------------------------------------------------------------------------


@dataclass
class _Acc:
    reg_reads: set = field(default_factory=set)
    reg_writes: set = field(default_factory=set)
    mem_reads: list = field(default_factory=list)
    mem_writes: list = field(default_factory=list)
    unknown_reads: int = 0
    unknown_writes: int = 0


def _signed(value: int, width: int) -> int:
    value &= (1 << width) - 1
    return value - (1 << width) if value >= 1 << (width - 1) else value


def _region_of(
    addr: Term, nbytes: int, origins: dict[Term, tuple[Reg, int]]
) -> MemRegion | None:
    """Abstract an address term to ``base ± offset`` (or ``None``)."""
    if not addr.sort.is_bv():
        return None
    coeffs: dict[Term, int] = {}
    const = _decompose_linear(addr, 1, 0, coeffs)
    width = addr.width
    mask = (1 << width) - 1
    coeffs = {t: c for t, c in coeffs.items() if c & mask}
    if not coeffs:
        lo = const & mask
        return MemRegion(None, lo, lo + nbytes)
    if len(coeffs) == 1:
        (term, coeff), = coeffs.items()
        if coeff & mask == 1 and term in origins:
            base, delta = origins[term]
            lo = _signed(const + delta, width)
            return MemRegion(base, lo, lo + nbytes)
    return None


def footprint_of_trace(trace: Trace) -> Footprint:
    """Infer the footprint of a trace in one pass over the event tree.

    Base-register tracking is path-sensitive: a variable bound by
    ``ReadReg(r, x)`` before any write to ``r`` denotes ``r``'s initial
    value, and definitions of the form ``y := x + c`` extend the origin
    with the offset.
    """
    acc = _Acc()
    _walk(trace, {}, set(), acc)
    return Footprint(
        frozenset(acc.reg_reads),
        frozenset(acc.reg_writes),
        _coalesce(acc.mem_reads),
        _coalesce(acc.mem_writes),
        acc.unknown_reads,
        acc.unknown_writes,
    )


def _walk(
    trace: Trace,
    origins: dict[Term, tuple[Reg, int]],
    written: set[Reg],
    acc: _Acc,
) -> None:
    for j in trace.events:
        if isinstance(j, E.ReadReg):
            acc.reg_reads.add(j.reg)
            if j.value.is_var() and j.reg not in written and j.value not in origins:
                origins[j.value] = (j.reg, 0)
        elif isinstance(j, E.AssumeReg):
            acc.reg_reads.add(j.reg)
        elif isinstance(j, E.WriteReg):
            acc.reg_writes.add(j.reg)
            written.add(j.reg)
        elif isinstance(j, E.DefineConst):
            if j.expr.sort.is_bv():
                coeffs: dict[Term, int] = {}
                const = _decompose_linear(j.expr, 1, 0, coeffs)
                mask = (1 << j.expr.width) - 1
                coeffs = {t: c for t, c in coeffs.items() if c & mask}
                if len(coeffs) == 1:
                    (term, coeff), = coeffs.items()
                    if coeff & mask == 1 and term in origins:
                        base, delta = origins[term]
                        origins[j.var] = (base, const + delta)
        elif isinstance(j, E.ReadMem):
            region = _region_of(j.addr, j.nbytes, origins)
            if region is None:
                acc.unknown_reads += 1
            else:
                acc.mem_reads.append(region)
        elif isinstance(j, E.WriteMem):
            region = _region_of(j.addr, j.nbytes, origins)
            if region is None:
                acc.unknown_writes += 1
            else:
                acc.mem_writes.append(region)
    if trace.cases is not None:
        for sub in trace.cases:
            _walk(sub, dict(origins), set(written), acc)


def trace_read_regs(trace: Trace) -> frozenset[Reg]:
    """The registers whose *initial* values a trace depends on: everything
    observed by a ``ReadReg`` or ``AssumeReg`` anywhere in the tree.

    This is the sound restriction set for cache-key coarsening — pinned or
    constrained assumptions on registers outside this set are never
    consulted by the executor, so they cannot change the generated trace.
    Must be computed on the *pre-simplification* trace: simplification
    drops dead ``ReadReg`` events whose register the model did read.
    """
    regs: set[Reg] = set()
    for j in trace.iter_events():
        if isinstance(j, (E.ReadReg, E.AssumeReg)):
            regs.add(j.reg)
    return frozenset(regs)


def block_footprints(traces: dict[int, Trace]) -> dict[int, Footprint]:
    """Footprint of every instruction of a program, by address."""
    return {addr: footprint_of_trace(t) for addr, t in sorted(traces.items())}


# ---------------------------------------------------------------------------
# Interference.
# ---------------------------------------------------------------------------


def _mem_conflict(writer: Footprint, other: Footprint) -> bool:
    """Does a memory write of ``writer`` possibly touch memory ``other``
    accesses (either direction of access on ``other``'s side)?"""
    if writer.unknown_writes and other.touches_memory:
        return True
    targets = other.mem_reads + other.mem_writes
    if writer.mem_writes and (other.unknown_reads or other.unknown_writes):
        return True
    return any(
        w.overlaps(t) for w in writer.mem_writes for t in targets
    )


def may_interfere(
    a: Footprint, b: Footprint, ignore: frozenset[Reg] = frozenset()
) -> bool:
    """Conservative interference: ``False`` only when the effects provably
    commute.  ``ignore`` excludes bookkeeping registers every instruction
    touches (the PC) from the register check."""
    a_writes = a.reg_writes - ignore
    b_writes = b.reg_writes - ignore
    if a_writes & ((b.reg_reads | b.reg_writes) - ignore):
        return True
    if b_writes & ((a.reg_reads | a.reg_writes) - ignore):
        return True
    return _mem_conflict(a, b) or _mem_conflict(b, a)


def interference_groups(
    footprints: list[Footprint], ignore: frozenset[Reg] = frozenset()
) -> list[list[int]]:
    """Partition indices into connected components of ``may_interfere``.

    Groups are returned sorted by smallest member; members sorted.  Blocks
    in different groups provably do not interfere, so a scheduler may
    order or batch them freely without changing any observable result.
    """
    n = len(footprints)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if may_interfere(footprints[i], footprints[j], ignore):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])
