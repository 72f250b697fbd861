"""Shellability and bishellability: witnesses, search, and diagnostics.

A shell witness is a vertex sequence v_1..v_s such that, relative to a
reference face F, every pair r < t leaves both v_r and v_t incident with
the face containing F after deleting the prefix v_1..v_{r-1} and the
suffix v_{t+1}..v_s.  A bishell witness of order s consists of two
sequences a_0..a_s and b_0..b_s growing away from the same face, with
the complementary prefixes disjoint: a_i != b_j whenever i + j <= s.
The witnesses and the two diagnostic reports, `InvariantEdgeReport` and
`SufficientConditions`, are NamedTuples.

The thresholds of the crossing bound H(n) are the searches' defaults,
written nowhere else: `s=None` asks `check_s_shellable` for some
s >= floor(n/2) (Abrego et al.) and `check_bishellable` for order
floor(n/2) - 2 (the paper's main result).

Searches are exhaustive and deterministic (faces ascending, candidate
vertices ascending), so the returned witness only depends on the
drawing.  Verification never searches: it reads the incidences of the
deleted sets a witness claims directly.

Every incidence test depends only on the set of deleted vertices, so
searches and verifiers look it up in a memo that maps the set, as a
vertex bitmask, to its `DeletionView`.  One memo serves every face and
both sequences of a bishell search, and every face and every s of a
shell search.  A set's view is grown from the memoised view of the set
minus one vertex when there is one: it copies that view's union-find
and corner masks (per class, the vertices with a dart into it) and runs
only the new vertex's unions.  A read halves the union-find paths it
walks in place, which moves no class root, so a view answers the same
before and after it is read or grown from.

To *peel* is to delete a vertex incident with the class of the
reference face.  Incidence is monotone: a vertex incident after
deleting X stays incident after deleting one more vertex, while two
vertices survive.  So the greedy lemma holds: with some vertices
banned until given steps, peeling any allowed vertex at each step goes
as far as the longest peel sequence (exchange the first vertex of a
longest sequence that greedy did not peel for the one it did).  Two
rules of the bishell search follow.

* Greedy B.  Given a_0..a_s, b_j is the lowest vertex peelable after
  b_0..b_{j-1} that is not one of a_0..a_{s-j}: the first b-sequence a
  depth-first search in ascending order finds.
* Peel closure.  The a-sequence walk extends a prefix A_i = {a_0..a_i}
  only while a greedy peel with A_i banned throughout takes s - i + 1
  vertices, since b_0..b_{s-i} of a witness through A_i is such a peel.

The closure is also sufficient: B always completes once every prefix
of a_0..a_s passes.  Given peels P_i of s - i + 1 vertices avoiding
A_i, build W for k = s, ..., 0 by appending the first vertex of P_k not
yet in W.  It is peelable after W by monotonicity (its predecessors in
P_k are in W, and |W| = s - k <= n - 2), and it avoids A_k, as every
earlier entry came from a P_k' with k' > k.  So w_j is not in A_{s-j}:
W is a b-sequence, and greedy B is complete.  Whether a witness runs
through A_i thus depends only on the set A_i, so the walk searches over
prefix sets and tests none twice at a face.

Both searches visit only the faces that two vertices touch with nothing
deleted, read off the view of the empty set.  A bishell witness of any
order has a_0 != b_0 (condition (3) at i = j = 0), and both are peeled
with nothing deleted; pair (1, s) of a shell witness of length s >= 2
deletes nothing and needs v_1 != v_s incident.  Length 1 has no pair,
so every face has the 1-shell witness (0,) and keeps its search.

None of this drops a witness or reorders the a-sequences, so the
witnesses and refusals are those of the exhaustive search.

The same monotonicity reduces the pairs of a shell witness to two
peels: v_1..v_s is one exactly when v_1..v_{s-1} peels from the front
(v_r is incident once v_1..v_{r-1} are deleted) and v_s..v_2 peels from
the back (v_t is incident once v_{t+1}..v_s are deleted).  Pair (r,t)
deletes a superset of what pairs (r,s) and (1,t) delete, and v_r and v_t
survive it, so both stay incident.  Equivalently, `shell_to_bishell` of
the sequence meets bishell conditions (1) and (2).  The shell search
fills positions outside-in (v_1, v_s, v_2, v_{s-1}, ...) and narrows
each position's candidates by the peel whose deleted vertices are
placed (`_shell_at_face`).  The peels left pending are checked once
the sequence is complete.  A pending front position's back peel
deletes a superset of the back part placed before the last step, whose
incident mask the last step holds; a pending back position's front
peel likewise deletes a superset of the front part.  By monotonicity a
vertex incident there stays incident, so a view of its whole suffix
(or prefix) is built only when that test fails.  The search also keeps
only v_1 < v_s: reversing a witness maps pair (r,t) to (s+1-t, s+1-r)
with the same deleted set and endpoints, so the reverse of a witness
is one, and the first witness in fill order always has v_1 < v_s.  No
rule changes which sequences are accepted or the order they are tried
in, so the witnesses and refusals are those of trying every vertex
against every pair.  The verifier still checks every pair.  `kncross
check` re-verifies every witness with the verifier before it prints or
writes it, and exits 3 instead when the verifier refuses it.

A triangle flip changes no answer at a face a vertex touches.  At a
face bounded by three crossing segments, a flip moves one of the three
edges across the crossing of the other two: the triangle's two
crossings trade places on each of the three paths, and each crossing
keeps its orientation.  Outside a small disk around the triangle
nothing changes, and inside it each of the six regions around the
triangle keeps its arc of the disk's boundary, so every face but the
triangle keeps its identity and its vertex corners.  The same holds
once any set X of vertices is deleted: if the three edges survive, the
flip happens in D - X too, and otherwise it is only an isotopy there.
So every incidence of every deletion view is unchanged, and with it
every shell and bishell answer and the k-edge vector at each face a
vertex touches.  Flips connect all good drawings of K_n with the same
rotation system (Gioan), so these answers depend only on the rotation
system, and keeping one drawing per `rotation_key` loses none of them.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .drawing import DeletionView, Drawing
from .kedges import k_value


class WitnessInvalid(Exception):
    """A search produced a witness the verifier refuses: an internal
    error, not a refusal of input, so not a ValueError."""


class ShellWitness(NamedTuple):
    face: int
    seq: Tuple[int, ...]          # v_1 .. v_s

    @property
    def order(self) -> int:
        return len(self.seq)


class BishellWitness(NamedTuple):
    face: int
    a_seq: Tuple[int, ...]        # a_0 .. a_s
    b_seq: Tuple[int, ...]        # b_0 .. b_s (b_0 first)

    @property
    def order(self) -> int:
        return len(self.a_seq) - 1


class InvariantEdgeReport(NamedTuple):
    order: int
    a0_contribution: int
    invariant_count: int


class SufficientConditions(NamedTuple):
    uncrossed_cycle_len: int      # edges of the longest uncrossed simple cycle
    uncrossed_path_len: int       # edges of the longest uncrossed simple path
    implies_shellable: bool
    implies_bishellable: bool


# ---------------------------------------------------------------------------
# deletion views memoised by deleted set
# ---------------------------------------------------------------------------

# deleted-vertex bitmask -> the view of that set; the class is named by a
# string, since typing caches every subscription for good and a class held
# there would keep its module alive after the package is re-imported
Memo = Dict[int, "DeletionView"]


def _vertex_mask(vertices: Sequence[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _bits(mask: int) -> Iterator[int]:
    """Set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _view(drawing: Drawing, deleted: int, memo: Memo) -> DeletionView:
    """The view of the bitmask `deleted`, grown from a memoised view of
    the set minus one vertex when there is one."""
    view = memo.get(deleted)
    if view is None:
        parent = None
        for v in _bits(deleted):
            parent = memo.get(deleted ^ 1 << v)
            if parent is not None:
                break
        view = memo[deleted] = DeletionView(drawing, deleted, parent)
    return view


def _check_witness_face(drawing: Drawing, face: int) -> None:
    if not 0 <= face < drawing.face_count:
        raise ValueError(f"face {face} out of range")


def _search_faces(drawing: Drawing, face: Optional[int]) -> Sequence[int]:
    """Every face, or only the caller's `face`, checked once."""
    if face is None:
        return range(drawing.face_count)
    _check_witness_face(drawing, face)
    return (face,)


def _touched_faces(drawing: Drawing, faces: Sequence[int], memo: Memo) -> List[int]:
    """The faces of `faces` that two vertices touch with nothing deleted:
    the only ones with a bishell witness, or a shell witness of length
    s >= 2 (module docstring)."""
    # with nothing deleted every face is its own class, and every vertex
    # survives: the corner mask of f is its incident mask
    corners = _view(drawing, 0, memo).corners
    return [f for f in faces if corners[f] & corners[f] - 1]


def _check_seq(drawing: Drawing, seq: Sequence[int], what: str) -> None:
    if len(set(seq)) != len(seq):
        raise ValueError(f"duplicate vertex in {what}")
    for v in seq:
        if not 0 <= v < drawing.n:
            raise ValueError(f"vertex {v} out of range in {what}")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def shell_witness_violation(drawing: Drawing, witness: ShellWitness,
                            memo: Optional[Memo] = None) -> Optional[str]:
    """First violated pair condition, or None when the witness verifies."""
    seq = witness.seq
    s = len(seq)
    if not 1 <= s <= drawing.n:
        raise ValueError(f"sequence length {s} out of range")
    _check_seq(drawing, seq, "v-sequence")
    _check_witness_face(drawing, witness.face)
    if memo is None:
        memo = {}
    for r, t in itertools.combinations(range(1, s + 1), 2):
        deleted = _vertex_mask(seq[:r - 1]) | _vertex_mask(seq[t:])
        incident = _view(drawing, deleted, memo).incident_mask(witness.face)
        for v in (seq[r - 1], seq[t - 1]):
            if not incident >> v & 1:
                return (f"vertex {v} not incident with the reference class "
                        f"for pair (r,t)=({r},{t})")
    return None


def bishell_witness_violation(drawing: Drawing, witness: BishellWitness,
                              memo: Optional[Memo] = None) -> Optional[str]:
    """First violated condition (1)/(2)/(3), or None when it verifies."""
    a, b = witness.a_seq, witness.b_seq
    if len(a) != len(b) or not a:
        raise ValueError("a- and b-sequences must have equal length >= 1")
    _check_seq(drawing, a, "a-sequence")
    _check_seq(drawing, b, "b-sequence")
    _check_witness_face(drawing, witness.face)
    s = len(a) - 1
    if memo is None:
        memo = {}
    for name, seq in (("1", a), ("2", b)):
        for i in range(s + 1):
            view = _view(drawing, _vertex_mask(seq[:i]), memo)
            if not view.incident_mask(witness.face) >> seq[i] & 1:
                return f"condition ({name}) violated at i={i}"
    for i in range(s + 1):
        for j in range(s + 1 - i):
            if a[i] == b[j]:
                return f"condition (3) violated at i={s - j}"
    return None


# ---------------------------------------------------------------------------
# witness transformations
# ---------------------------------------------------------------------------


def shell_to_bishell(witness: ShellWitness) -> BishellWitness:
    """Turn a shell witness v_1..v_s into the order s-2 bishell witness.

    a_i = v_{i+1} and b_i = v_{s-i}; requires s >= 2.
    """
    seq = witness.seq
    s = len(seq)
    if s < 2:
        raise ValueError("need a shell witness of length >= 2")
    a = seq[:s - 1]
    b = tuple(seq[s - 1 - i] for i in range(s - 1))
    return BishellWitness(face=witness.face, a_seq=a, b_seq=b)


def truncate_bishell(witness: BishellWitness) -> BishellWitness:
    """Drop a_s and b_s, reducing the order by one."""
    if witness.order < 1:
        raise ValueError("cannot truncate an order-0 witness")
    return BishellWitness(face=witness.face,
                          a_seq=witness.a_seq[:-1],
                          b_seq=witness.b_seq[:-1])


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def check_bishellable(drawing: Drawing, s: Optional[int] = None,
                      face: Optional[int] = None) -> Optional[BishellWitness]:
    """Exhaustive search for an order-s bishell witness, by default of
    order floor(n/2) - 2.

    Scans all faces unless one is fixed, skipping those that fewer than
    two vertices touch: a_0 and b_0 are distinct and both incident with
    nothing deleted.  Within a face the a-sequence is grown depth-first,
    pruned by peel closure, and B is completed greedily
    (`_bishell_at_face`).
    Returns the first witness in the deterministic search order, or
    None.  One memo of deletion views serves both sequences and every
    face.
    """
    if s is None:
        s = drawing.n // 2 - 2
    if not 0 <= s <= drawing.n - 2:
        raise ValueError(f"order s={s} out of range for n={drawing.n}")
    memo: Memo = {}
    for f in _touched_faces(drawing, _search_faces(drawing, face), memo):
        found = _bishell_at_face(drawing, s, f, memo)
        if found is not None:
            return found
    return None


def _greedy_peel(drawing: Drawing, face: int, bans: Sequence[int],
                 memo: Memo) -> List[int]:
    """Peel from nothing deleted: at step j the lowest incident vertex
    outside the bitmask `bans[j]`, for as long as there is one."""
    deleted = 0
    peeled: List[int] = []
    for banned in bans:
        allowed = _view(drawing, deleted, memo).incident_mask(face) & ~banned
        if not allowed:
            break
        low = allowed & -allowed
        deleted |= low
        peeled.append(low.bit_length() - 1)
    return peeled


def _bishell_at_face(drawing: Drawing, s: int, face: int,
                     memo: Memo) -> Optional[BishellWitness]:
    """First witness at `face`: a-sequences depth-first, each prefix set
    peel-tested at most once and skipped once its subtree holds no
    witness; greedy B finishes a complete one (module docstring)."""
    prefixes: List[int] = []      # prefixes[i] = {a_0..a_i} as a bitmask
    failed: Set[int] = set()      # prefix sets no witness runs through

    def extend_a(deleted: int) -> Optional[BishellWitness]:
        i = len(prefixes)
        if i == s + 1:
            a = [(grown ^ prev).bit_length() - 1
                 for prev, grown in zip([0] + prefixes, prefixes)]
            b = _greedy_peel(drawing, face, prefixes[::-1], memo)
            return BishellWitness(face=face, a_seq=tuple(a), b_seq=tuple(b))
        length = s - i + 1
        for v in _bits(_view(drawing, deleted, memo).incident_mask(face)):
            grown = deleted | 1 << v
            if grown in failed:
                continue
            if len(_greedy_peel(drawing, face, (grown,) * length, memo)) == length:
                prefixes.append(grown)
                result = extend_a(grown)
                if result is not None:
                    return result
                prefixes.pop()
            failed.add(grown)
        return None

    return extend_a(0)


def check_s_shellable(drawing: Drawing, s: Optional[int] = None,
                      face: Optional[int] = None) -> Optional[ShellWitness]:
    """Exhaustive backtracking search for an s-shell witness, by default
    the first for s = floor(n/2), ..., n, with one memo of deletion
    views shared across s.

    Sequence positions are assigned outside-in (v_1, v_s, v_2, v_{s-1},
    ...), each from the candidates its peel leaves (`_shell_at_face`).
    """
    if s is not None and not 1 <= s <= drawing.n:
        raise ValueError(f"s={s} out of range for n={drawing.n}")
    lengths = range(drawing.n // 2, drawing.n + 1) if s is None else (s,)
    return _shell_search(drawing, lengths, face, {})


def _shell_search(drawing: Drawing, lengths: Sequence[int], face: Optional[int],
                  memo: Memo) -> Optional[ShellWitness]:
    """First witness over `lengths`, then faces.  A length s >= 2 visits
    only the faces two vertices touch, since pair (1, s) deletes nothing
    and needs v_1 != v_s incident; length 1 has no pair and visits every
    face."""
    faces = _search_faces(drawing, face)
    touched = _touched_faces(drawing, faces, memo)
    for s in lengths:
        for f in faces if s == 1 else touched:
            found = _shell_at_face(drawing, s, f, memo)
            if found is not None:
                return found
    return None


def _shell_at_face(drawing: Drawing, s: int, face: int,
                   memo: Memo) -> Optional[ShellWitness]:
    """First s-shell witness at `face`: v_1..v_{s-1} peels from the front
    and v_s..v_2 from the back.

    Positions are filled outside-in, front and back in turn (v_1, v_s,
    v_2, v_{s-1}, ...), candidates ascending.  Before a position is
    filled from the front its prefix is placed, and before it is filled
    from the back its suffix, so that peel narrows its candidates to one
    incident mask; at the last step both sides are placed.  The other
    peels are checked once the sequence is complete, innermost first:
    first against the mask the last step read for the other end, and
    only when that fails on a view of the whole suffix or prefix (module
    docstring).  Each deleted set's mask is read once per face.
    """
    if s == 1:      # no pair to check: every face has the witness (0,)
        return ShellWitness(face=face, seq=(0,))
    seq = [0] * s
    order = [step // 2 if step % 2 == 0 else s - 1 - step // 2 for step in range(s)]
    masks: Dict[int, int] = {}    # deleted bitmask -> incident mask at face

    def incident(deleted: int) -> int:
        mask = masks.get(deleted)
        if mask is None:
            mask = masks[deleted] = _view(drawing, deleted, memo).incident_mask(face)
        return mask

    def other_peels_hold(front: int, back: int) -> bool:
        # innermost first; the last step checked both of its peels, and
        # v_1 and v_s (steps 0 and 1) have one each.  front, back: the
        # parts the last step read, inside every pending prefix and
        # suffix, so by monotonicity a vertex incident there passes
        for step in range(s - 2, 1, -1):
            pos = order[step]
            v = seq[pos]
            if step % 2 == 0:
                held, deleted = back, seq[pos + 1:]
            else:
                held, deleted = front, seq[:pos]
            if not (incident(held) >> v & 1
                    or incident(_vertex_mask(deleted)) >> v & 1):
                return False
        return True

    def fill(step: int, front: int, back: int) -> bool:
        # front, back: the vertices placed from either end, as bitmasks
        pos = order[step]
        candidates = ~(front | back) & ((1 << drawing.n) - 1)
        if step == 1:
            # v_s > v_1: a witness reversed is a witness, and the first one
            # in fill order (v_1, v_s, ...) is never the larger of the two
            candidates &= -2 << seq[0]
        candidates &= incident(front if step % 2 == 0 else back)
        last = step == s - 1
        if last and step >= 2 and candidates:
            # the last step's other peel (v_s, step 1, has none): its part
            # is the one the previous step grew, so it is read only if needed
            candidates &= incident(back if step % 2 == 0 else front)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            seq[pos] = low.bit_length() - 1
            if last:
                if other_peels_hold(front, back):
                    return True
            elif (fill(step + 1, front | low, back) if step % 2 == 0
                    else fill(step + 1, front, back | low)):
                return True
        return False

    return ShellWitness(face=face, seq=tuple(seq)) if fill(0, 0, 0) else None


# ---------------------------------------------------------------------------
# sufficient conditions from uncrossed substructure
# ---------------------------------------------------------------------------


def sufficient_conditions(drawing: Drawing) -> SufficientConditions:
    """Longest uncrossed cycle/path and the implied shellability flags.

    A simple cycle of >= floor(n/2) uncrossed edges forces shellability
    (hence bishellability); an uncrossed simple path of 2*floor(n/2)-3
    edges forces bishellability.
    """
    n = drawing.n
    adj: List[List[int]] = [[] for _ in range(n)]
    for eid, path in enumerate(drawing.edge_paths):
        if not path:
            u, v = drawing.edges[eid]
            adj[u].append(v)
            adj[v].append(u)

    best_path = 0
    best_cycle = 0

    def dfs(u: int, start: int, visited: Set[int], length: int) -> None:
        nonlocal best_path, best_cycle
        best_path = max(best_path, length)
        for w in adj[u]:
            if w == start and length >= 2:
                best_cycle = max(best_cycle, length + 1)
            elif w not in visited:
                visited.add(w)
                dfs(w, start, visited, length + 1)
                visited.remove(w)

    for v in range(n):
        dfs(v, v, {v}, 0)

    shellable = best_cycle >= max(3, n // 2)
    bishellable = shellable or best_path >= 2 * (n // 2) - 3
    return SufficientConditions(
        uncrossed_cycle_len=best_cycle,
        uncrossed_path_len=best_path,
        implies_shellable=shellable,
        implies_bishellable=bishellable,
    )


# ---------------------------------------------------------------------------
# invariant edge diagnostics
# ---------------------------------------------------------------------------


def invariant_edge_report(drawing: Drawing,
                          witness: BishellWitness) -> InvariantEdgeReport:
    """Proof-accounting quantities of a verified bishell witness.

    `a0_contribution` sums max(0, k+1-j) over the edges at a_0, their
    j-values taken relative to the witness face.  `invariant_count`
    totals, over the chain D_i = D - {b_0..b_{i-1}}, the edges at b_i
    whose j-value is the same in D_i and D_i - a_0.
    """
    if bishell_witness_violation(drawing, witness) is not None:
        raise ValueError("witness does not verify")
    ref = (drawing if drawing.reference_face == witness.face
           else drawing.with_reference(witness.face))
    k = witness.order
    a0 = witness.a_seq[0]

    contribution = 0
    for x in range(ref.n):
        if x == a0:
            continue
        j = k_value(ref, (a0, x))
        contribution += max(0, k + 1 - j)

    invariant = 0
    alive = (1 << ref.n) - 1
    for b_i in witness.b_seq[:k + 1]:
        without_a0 = alive & ~(1 << a0)
        for x in _bits(without_a0 & ~(1 << b_i)):
            if k_value(ref, (b_i, x), alive) == k_value(ref, (b_i, x), without_a0):
                invariant += 1
        alive &= ~(1 << b_i)

    return InvariantEdgeReport(order=k, a0_contribution=contribution,
                               invariant_count=invariant)
