"""Whole-program passes over the extracted model.

Call resolution is *name-resolved*: a call is matched to function models
by receiver type where the receiver's type is known (member/local maps,
including derived classes of an abstract base), by the enclosing class
otherwise, and as a last resort by unioning every function with the same
base name (capped, and with std-container noise filtered). The resulting
call graph drives two fixpoints:

  may_acquire(f) — locks f may take, directly or transitively;
  may_block(f)   — a witness that f can reach a blocking primitive.

From these, the acquired-after edge set is: for every site where lock M
is taken (or a callee that may take M is invoked) while L is held,
L -> M. The Debug runtime LockOrderGraph records the same edges for
*executed* paths only; this set is its static superset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import BlockOp, CallSite, FunctionModel, Program

# Method names too generic to union on when the receiver type is unknown.
GENERIC_NAMES = {
    "push_back", "emplace_back", "pop_back", "size", "empty", "begin",
    "end", "rbegin", "rend", "find", "insert", "erase", "clear", "reserve",
    "resize", "count", "at", "front", "back", "substr", "c_str", "data",
    "str", "append", "get", "reset", "release", "swap", "emplace", "value",
    "has_value", "push", "pop", "top", "first", "second", "length",
    "to_string", "move", "forward", "make_unique", "make_shared", "min",
    "max", "abs", "swap", "lock", "unlock", "try_lock", "contains",
    "try_emplace", "emplace_hint", "assign", "compare", "starts_with",
    "ends_with", "lower_bound", "upper_bound", "exchange", "load", "store",
    "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "notify_one", "notify_all", "join",
    "detach", "joinable", "is_ok", "status", "message", "ok", "error",
}
# A call whose receiver type is unknown resolves to every method of that
# name while there are at most this many. Past the cap it resolves to
# nothing, so the cap must sit above the implementation count of every
# interface the program dispatches through: at 8, a ninth `close()` (one
# more Endpoint) silently dropped every unresolved `close()` call and the
# blocking findings behind them.
NAME_UNION_CAP = 12


@dataclass
class Edge:
    src: str  # canonical lock
    dst: str
    file: str
    line: int
    fn: str   # function containing the witness site
    via: str  # "" for a direct acquire, else the callee chain


@dataclass
class BlockWitness:
    kind: str
    what: str
    file: str
    line: int
    chain: tuple[str, ...]  # qnames from the flagged fn down to the primitive
    exempt: str | None = None


@dataclass
class Analysis:
    program: Program
    callees: dict[int, list[list[FunctionModel]]] = field(default_factory=dict)
    may_acquire: dict[int, set[str]] = field(default_factory=dict)
    may_block: dict[int, dict[str, BlockWitness]] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)


def _derived_closure(p: Program) -> dict[str, set[str]]:
    derived: dict[str, set[str]] = {}
    for cls, bases in p.bases.items():
        for b in bases:
            for full in p.class_index.get(b, [b]):
                derived.setdefault(full, set()).add(cls)
            derived.setdefault(b, set()).add(cls)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for base, subs in list(derived.items()):
            for s in list(subs):
                extra = derived.get(s, set()) - subs
                if extra:
                    subs |= extra
                    changed = True
    return derived


def _methods_of(p: Program, cls: str, name: str,
                derived: dict[str, set[str]]) -> list[FunctionModel]:
    wanted = {cls} | derived.get(cls, set())
    for full in p.class_index.get(cls.split("::")[-1], []):
        wanted.add(full)
        wanted |= derived.get(full, set())
    out = []
    for fn in p.by_name.get(name, []):
        if not fn.owner:
            continue
        last = fn.owner
        if last in wanted or last.split("::")[-1] in \
                {w.split("::")[-1] for w in wanted}:
            out.append(fn)
    return out


def resolve_callees(p: Program) -> dict[int, list[list[FunctionModel]]]:
    """For each function, for each call site, the candidate callees."""
    derived = _derived_closure(p)
    result: dict[int, list[list[FunctionModel]]] = {}
    for fn in p.functions:
        per_site: list[list[FunctionModel]] = []
        for cs in fn.calls:
            cands: list[FunctionModel] = []
            if cs.qualifier is not None:
                # "" is the global qualifier (`::name(...)`): such a call
                # can only be a free function, never a method — a bare
                # `::shutdown(fd, ...)` syscall must not union onto
                # `Starter::shutdown`.
                qual = cs.qualifier.split("::")[-1]
                if qual:
                    cands = _methods_of(p, qual, cs.name, derived)
                if not cands:
                    cands = [f for f in p.by_name.get(cs.name, [])
                             if not f.owner]
            elif cs.receiver and cs.receiver not in ("this", "<expr>"):
                base_type = getattr(fn, "locals", {}).get(cs.receiver)
                if base_type is None and fn.owner:
                    chain = fn.owner.split("::")
                    while chain and base_type is None:
                        base_type = p.members.get(
                            "::".join(chain), {}).get(cs.receiver)
                        chain.pop()
                if base_type:
                    cands = _methods_of(p, base_type, cs.name, derived)
                elif cs.name not in GENERIC_NAMES:
                    pool = p.by_name.get(cs.name, [])
                    if 0 < len(pool) <= NAME_UNION_CAP:
                        cands = list(pool)
            elif cs.receiver is None and \
                    cs.name in getattr(fn, "local_callables", ()):
                pass  # a local lambda, never a method or free function
            else:
                # Unqualified / this-> call: same class first, then free
                # functions, then the capped name union.
                if fn.owner:
                    cands = _methods_of(p, fn.owner.split("::")[-1],
                                        cs.name, derived)
                if not cands:
                    cands = [f for f in p.by_name.get(cs.name, [])
                             if not f.owner]
                if not cands and cs.name not in GENERIC_NAMES:
                    pool = p.by_name.get(cs.name, [])
                    if 0 < len(pool) <= NAME_UNION_CAP:
                        cands = list(pool)
            per_site.append([c for c in cands if not c.is_lambda])
        result[id(fn)] = per_site
    return result


def run_analysis(p: Program) -> Analysis:
    a = Analysis(program=p)
    a.callees = resolve_callees(p)

    # --- fixpoint: may_acquire and may_block ---------------------------
    for fn in p.functions:
        k = id(fn)
        a.may_acquire[k] = {s.lock for s in fn.acquires}
        a.may_block[k] = {}
        for b in fn.blocks:
            a.may_block[k].setdefault(b.kind, BlockWitness(
                kind=b.kind, what=b.what, file=fn.file, line=b.line,
                chain=(fn.qname,), exempt=b.exempt))
    changed = True
    rounds = 0
    while changed and rounds < 64:
        changed = False
        rounds += 1
        for fn in p.functions:
            k = id(fn)
            for cs, cands in zip(fn.calls, a.callees[k]):
                for c in cands:
                    ck = id(c)
                    extra = a.may_acquire[ck] - a.may_acquire[k] - \
                        set(c.requires)
                    if extra:
                        a.may_acquire[k] |= extra
                        changed = True
                    for kind, w in a.may_block[ck].items():
                        if kind not in a.may_block[k]:
                            a.may_block[k][kind] = BlockWitness(
                                kind=kind, what=w.what, file=fn.file,
                                line=cs.line,
                                chain=(fn.qname,) + w.chain,
                                exempt=None)
                            changed = True

    # --- acquired-after edges ------------------------------------------
    seen: set[tuple[str, str]] = set()
    for fn in p.functions:
        k = id(fn)
        for s in fn.acquires:
            for held in s.held:
                if held == s.lock:
                    continue
                key = (held, s.lock)
                a.edges.append(Edge(src=held, dst=s.lock, file=fn.file,
                                    line=s.line, fn=fn.qname, via=""))
                seen.add(key)
        for cs, cands in zip(fn.calls, a.callees[k]):
            if not cs.held:
                continue
            for c in cands:
                for m in (a.may_acquire[id(c)] - set(c.requires)):
                    for held in cs.held:
                        if held == m:
                            continue
                        a.edges.append(Edge(
                            src=held, dst=m, file=fn.file, line=cs.line,
                            fn=fn.qname, via=c.qname))
    return a


# --- cycles ---------------------------------------------------------------


def edge_map(a: Analysis) -> dict[tuple[str, str], Edge]:
    out: dict[tuple[str, str], Edge] = {}
    for e in a.edges:
        out.setdefault((e.src, e.dst), e)
    return out


def find_cycles(a: Analysis) -> list[list[str]]:
    """Strongly connected components of size > 1 (or self loops) in the
    acquired-after graph, as deterministic lock-name cycles."""
    adj: dict[str, set[str]] = {}
    for e in a.edges:
        adj.setdefault(e.src, set()).add(e.dst)
        adj.setdefault(e.dst, set())
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(adj[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in adj.get(node, set()):
                    sccs.append(sorted(comp))

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)
    return sorted(sccs)


# --- ordering table -------------------------------------------------------


def lock_levels(a: Analysis) -> dict[str, int]:
    """Longest-path layering: level(L) = 1 + max(level of locks observed
    held when L is taken). Cycle back-edges (already reported separately)
    are broken deterministically so the table always renders."""
    nodes = sorted({d.canonical for d in a.program.mutexes.values()} |
                   {e.src for e in a.edges} | {e.dst for e in a.edges})
    preds: dict[str, set[str]] = {v: set() for v in nodes}
    for e in a.edges:
        if e.src in preds and e.dst in preds and e.src != e.dst:
            preds[e.dst].add(e.src)
    # Drop back-edges inside SCCs: keep only edges from a lexicographically
    # smaller node, which makes the subgraph acyclic deterministically.
    sccs = find_cycles(a)
    in_scc: dict[str, int] = {}
    for idx, comp in enumerate(sccs):
        for v in comp:
            in_scc[v] = idx
    for v in nodes:
        preds[v] = {u for u in preds[v]
                    if not (in_scc.get(u) is not None and
                            in_scc.get(u) == in_scc.get(v) and u > v)}
    level: dict[str, int] = {}

    def compute(v: str, trail: set[str]) -> int:
        if v in level:
            return level[v]
        if v in trail:
            return 1
        trail.add(v)
        lv = 1 + max((compute(u, trail) for u in preds[v]), default=0)
        trail.discard(v)
        level[v] = lv
        return lv

    for v in nodes:
        compute(v, set())
    return level


def render_lock_table(a: Analysis) -> str:
    """The canonical ordering table. DESIGN.md §10 embeds this output
    verbatim; the design-drift rule compares byte-for-byte."""
    p = a.program
    declared = sorted({d.canonical for d in p.mutexes.values()})
    levels = lock_levels(a)
    succs: dict[str, set[str]] = {v: set() for v in declared}
    for e in a.edges:
        if e.src in succs and e.dst in declared and e.src != e.dst:
            succs[e.src].add(e.dst)
    kinds = {d.canonical: d.kind for d in p.mutexes.values()}
    rows = sorted(declared, key=lambda v: (levels.get(v, 1), v))
    lines = [
        "| order | lock | kind | may acquire while held |",
        "|------:|:-----|:-----|:-----------------------|",
    ]
    for v in rows:
        nxt = ", ".join(f"`{s}`" for s in sorted(succs[v])) or "—"
        lines.append(f"| {levels.get(v, 1)} | `{v}` | {kinds[v]} | {nxt} |")
    return "\n".join(lines) + "\n"
