"""Extraction: turn the C++ tree into a Program model.

Two phases:

  1. walk every file, collecting classes, mutex declarations, member and
     local variable types, callback members, TSA annotations, and per
     function an *abstract* event stream (guard acquisitions, calls,
     blocking primitives) keyed by unresolved lock expressions;
  2. resolve lock expressions and annotation references to canonical
     lock names (the name string each tdp::Mutex is constructed with),
     now that the whole program is known.

The walker is deliberately lexical: it tracks braces, parens, class and
namespace scopes, constructor initializer lists, and lambdas — enough to
attribute every wrapper call site to a function and a held-lock set
without parsing C++ for real.
"""

from __future__ import annotations

import re

from .cppscan import Tok, scrub, tokenize
from .model import (AcquireSite, BlockOp, CallSite, FunctionModel, MutexDecl,
                    Program)

MUTEX_TYPES = {"Mutex", "SharedMutex"}
GUARD_TYPES = {"LockGuard", "UniqueLock", "WriteLock", "SharedLock", "ReadLock"}
ANNOT_REQUIRES = {"TDP_REQUIRES", "TDP_REQUIRES_SHARED"}
ANNOT_ACQUIRE = {"TDP_ACQUIRE", "TDP_ACQUIRE_SHARED"}
ANNOT_EXCLUDES = {"TDP_EXCLUDES"}
ANNOT_OTHER = {
    "TDP_GUARDED_BY", "TDP_PT_GUARDED_BY", "TDP_RELEASE",
    "TDP_RELEASE_SHARED", "TDP_TRY_ACQUIRE", "TDP_TRY_ACQUIRE_SHARED",
    "TDP_ASSERT_HELD", "TDP_ASSERT_HELD_SHARED", "TDP_RETURN_CAPABILITY",
    "TDP_CAPABILITY", "TDP_SCOPED_CAPABILITY", "TDP_NO_THREAD_SAFETY_ANALYSIS",
}
ANNOT_ALL = ANNOT_REQUIRES | ANNOT_ACQUIRE | ANNOT_EXCLUDES | ANNOT_OTHER

SLEEP_CALLS = {"sleep_for", "sleep_until", "usleep", "nanosleep", "sleep"}
FSTREAM_TYPES = {"ofstream", "ifstream", "fstream"}
FILE_IO_CALLS = {"fopen", "fwrite", "fread", "fflush", "fsync", "fdatasync",
                 "fclose", "rename", "remove", "create_directories",
                 "remove_all", "resize_file"}
GLOBAL_SOCKET_CALLS = {"send", "recv", "poll", "select", "accept", "connect",
                       "read", "write", "sendmsg", "recvmsg"}
WAIT_CALLS = {"wait", "wait_for", "wait_until"}

KEYWORDS = {
    "if", "while", "for", "switch", "return", "sizeof", "new", "delete",
    "throw", "catch", "case", "do", "else", "goto", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "alignof", "decltype",
    "static_assert", "noexcept", "alignas", "co_await", "co_return", "typeid",
    "assert",
}
TYPE_NOISE = {
    "const", "constexpr", "mutable", "static", "inline", "volatile",
    "unsigned", "signed", "long", "short", "struct", "class", "typename",
    "auto", "void", "int", "bool", "char", "float", "double", "virtual",
    "extern", "register", "friend", "using", "explicit", "thread_local",
}

_MUTEX_NAME_RE = re.compile(r'\{\s*"([^"]*)"')

# Templates a call on the member passes straight through to their first
# argument (`ptr->close()` calls the pointee's close()).
POINTER_WRAPPERS = {"shared_ptr", "unique_ptr", "weak_ptr", "optional"}


def member_type(head: list[Tok]) -> str | None:
    """The class calls on a member of declared type `head` resolve to.

    A pointer wrapper is typed by its first argument; any other template
    by its own name, never by an argument:
    `shared_ptr<InProcQueue<unique_ptr<Endpoint>>>` is an `InProcQueue`,
    not an `Endpoint`.
    """
    name = None
    for k, t in enumerate(head):
        if t.text == "<":
            return member_type(head[k + 1:]) if name in POINTER_WRAPPERS \
                else name
        if t.text in (",", ">", ">>"):
            break
        if t.kind == "id" and t.text not in TYPE_NOISE:
            name = t.text
    return name


class FileWalker:
    def __init__(self, program: Program, relpath: str, text: str):
        self.p = program
        self.rel = relpath
        self.raw_lines = text.splitlines()
        self.toks = tokenize(scrub(text))
        self.i = 0
        # scope stack entries: (kind, name) with kind in
        # {"namespace", "class", "block"}; class chain excludes namespaces.
        self.scopes: list[tuple[str, str]] = []

    # -- helpers ----------------------------------------------------------

    def class_chain(self) -> str:
        return "::".join(n for k, n in self.scopes if k == "class" and n)

    def tok(self, idx: int) -> Tok | None:
        return self.toks[idx] if 0 <= idx < len(self.toks) else None

    def raw_around(self, line: int) -> str:
        lo = max(0, line - 1)
        hi = min(len(self.raw_lines), line + 1)
        return "\n".join(self.raw_lines[lo:hi])

    def match_group(self, idx: int, open_c: str, close_c: str) -> int:
        """idx points at the opening token; returns index after the close."""
        depth = 0
        n = len(self.toks)
        while idx < n:
            t = self.toks[idx].text
            if t == open_c:
                depth += 1
            elif t == close_c:
                depth -= 1
                if depth == 0:
                    return idx + 1
            idx += 1
        return n

    # -- top-level / class-scope walk -------------------------------------

    def walk(self) -> None:
        n = len(self.toks)
        while self.i < n:
            t = self.toks[self.i]
            txt = t.text
            if txt == "namespace":
                self.enter_namespace()
            elif txt in ("class", "struct") and self.looks_like_class_def():
                self.enter_class()
            elif txt == "enum":
                self.skip_enum()
            elif txt == "using" or txt == "typedef":
                self.handle_using()
            elif txt == "template":
                self.i += 1
                if self.tok(self.i) and self.toks[self.i].text == "<":
                    self.i = self.match_angle(self.i)
            elif txt == "friend":
                self.skip_to_semicolon()
            elif txt in ("public", "private", "protected") and \
                    self.tok(self.i + 1) and self.toks[self.i + 1].text == ":":
                self.i += 2
            elif txt == "{":
                self.scopes.append(("block", ""))
                self.i += 1
            elif txt == "}":
                if self.scopes:
                    self.scopes.pop()
                self.i += 1
            elif txt == ";":
                self.i += 1
            elif txt == "extern" and self.tok(self.i + 1) and \
                    self.toks[self.i + 1].kind == "str":
                self.i += 2  # extern "C" — the '{' (if any) pushes a block
            else:
                self.parse_statement()

    def match_angle(self, idx: int) -> int:
        depth = 0
        n = len(self.toks)
        while idx < n:
            t = self.toks[idx].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return idx + 1
            elif t in ("{", ";"):
                return idx  # malformed / not a template head; bail out
            idx += 1
        return n

    def looks_like_class_def(self) -> bool:
        """class/struct followed by a '{' before any ';', '(' or '='."""
        j = self.i + 1
        n = len(self.toks)
        angle = 0
        while j < n:
            t = self.toks[j].text
            if t == "<":
                angle += 1
            elif t == ">":
                angle = max(0, angle - 1)
            elif angle == 0:
                if t == "{":
                    return True
                if t in (";", "(", "=", ")", ","):
                    return False
            j += 1
        return False

    def enter_namespace(self) -> None:
        j = self.i + 1
        names = []
        n = len(self.toks)
        while j < n and self.toks[j].text not in ("{", ";", "="):
            if self.toks[j].kind == "id":
                names.append(self.toks[j].text)
            j += 1
        if j < n and self.toks[j].text == "{":
            self.scopes.append(("namespace", "::".join(names)))
            self.i = j + 1
        else:
            self.i = j + 1  # namespace alias or ';'

    def enter_class(self) -> None:
        j = self.i + 1
        n = len(self.toks)
        name = ""
        bases: list[str] = []
        in_bases = False
        while j < n and self.toks[j].text != "{":
            t = self.toks[j]
            if t.text == ":" and self.toks[j - 1].text != ":":
                in_bases = True
            elif t.kind == "id":
                if t.text.startswith("TDP_") and self.tok(j + 1) and \
                        self.toks[j + 1].text == "(":
                    j = self.match_group(j + 1, "(", ")")
                    continue
                if in_bases:
                    if t.text not in ("public", "private", "protected",
                                      "virtual"):
                        bases.append(t.text)
                elif t.text != "final":
                    name = t.text
            j += 1
        self.scopes.append(("class", name))
        chain = self.class_chain()
        if chain:
            self.p.note_class(chain)
            if bases:
                self.p.bases[chain] = [b.split("::")[-1] for b in bases]
            self.p.members.setdefault(chain, {})
        self.i = j + 1

    def skip_enum(self) -> None:
        j = self.i + 1
        n = len(self.toks)
        while j < n and self.toks[j].text not in ("{", ";"):
            j += 1
        if j < n and self.toks[j].text == "{":
            j = self.match_group(j, "{", "}")
        self.i = j

    def skip_to_semicolon(self) -> None:
        n = len(self.toks)
        depth = 0
        while self.i < n:
            t = self.toks[self.i].text
            if t in ("(", "{", "["):
                depth += 1
            elif t in (")", "}", "]"):
                depth -= 1
            elif t == ";" and depth <= 0:
                self.i += 1
                return
            self.i += 1

    def handle_using(self) -> None:
        start = self.i
        self.skip_to_semicolon()
        span = self.toks[start:self.i]
        texts = [t.text for t in span]
        # `using Alias = std::function<...>;` registers a callback alias.
        if len(texts) >= 4 and texts[0] == "using" and "=" in texts:
            alias = texts[1]
            if "function" in texts:
                self.p.callbacks.setdefault("<aliases>", set()).add(alias)

    # -- statement head parsing -------------------------------------------

    def parse_statement(self) -> None:
        """Parse one declaration-scope statement: either a declaration
        (ends with ';') or a function definition (ends with a body)."""
        toks = self.toks
        n = len(toks)
        start = self.i
        j = start
        groups: list[tuple[int, int, str, bool, bool]] = []  # (s, e, prev_id, annot, in_init)
        annots: dict[str, list[str]] = {"requires": [], "acquire": [], "excludes": []}
        in_init = False
        body_at = -1
        end_at = -1
        while j < n:
            t = toks[j]
            txt = t.text
            if txt == "(":
                prev = toks[j - 1].text if j > start else ""
                e = self.match_group(j, "(", ")")
                is_annot = prev in ANNOT_ALL
                if is_annot:
                    expr = self.join_expr(toks[j + 1:e - 1])
                    if prev in ANNOT_REQUIRES:
                        annots["requires"].extend(self.split_args(toks[j + 1:e - 1]))
                    elif prev in ANNOT_ACQUIRE:
                        annots["acquire"].extend(self.split_args(toks[j + 1:e - 1]))
                    elif prev in ANNOT_EXCLUDES:
                        annots["excludes"].extend(self.split_args(toks[j + 1:e - 1]))
                    del expr
                groups.append((j, e, prev, is_annot, in_init))
                j = e
                continue
            if txt == "{":
                prev = toks[j - 1].text if j > start else ""
                if prev in (")", "const", "noexcept", "override", "final",
                            "try") or (in_init and prev == "}"):
                    body_at = j
                    break
                # brace initializer — consume and keep scanning
                e = self.match_group(j, "{", "}")
                groups.append((j, e, prev, False, in_init))
                j = e
                continue
            if txt == ";":
                end_at = j
                break
            if txt == ":" and j > start and toks[j - 1].text == ")" and \
                    not in_init:
                in_init = True
            j += 1
        if body_at < 0 and end_at < 0:
            self.i = n
            return
        head = toks[start:(body_at if body_at >= 0 else end_at)]
        if body_at >= 0:
            self.handle_function(head, annots, body_at)
        else:
            self.handle_declaration(head, groups, annots, start, end_at)
            self.i = end_at + 1

    @staticmethod
    def join_expr(span: list[Tok]) -> str:
        return "".join(t.text for t in span)

    @staticmethod
    def split_args(span: list[Tok]) -> list[str]:
        args: list[list[str]] = [[]]
        depth = 0
        for t in span:
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                args.append([])
            else:
                args[-1].append(t.text)
        return ["".join(a) for a in args if a]

    # -- declarations ------------------------------------------------------

    def handle_declaration(self, head: list[Tok], groups, annots,
                           start: int, end_at: int) -> None:
        owner = self.class_chain()
        texts = [t.text for t in head]
        # Mutex member / variable declaration.
        for k, t in enumerate(head):
            if t.text in MUTEX_TYPES and t.kind == "id":
                if k > 0 and head[k - 1].text in ("class", "struct", "<"):
                    continue
                nxt = head[k + 1] if k + 1 < len(head) else None
                if nxt is not None and nxt.kind == "id":
                    member = nxt.text
                    m = _MUTEX_NAME_RE.search(self.raw_around(nxt.line))
                    canonical = m.group(1) if m else (
                        f"{owner}::{member}" if owner else member)
                    self.p.mutexes[(owner, member)] = MutexDecl(
                        kind=t.text, member=member, canonical=canonical,
                        owner=owner, file=self.rel, line=nxt.line)
                    return
        # Method declaration with annotations (no body): record for the
        # out-of-line definition to pick up.
        param = next((g for g in reversed(groups)
                      if not g[3] and not g[4] and g[2] and
                      g[2] not in KEYWORDS and g[2] not in TYPE_NOISE), None)
        if param is not None and (annots["requires"] or annots["acquire"] or
                                  annots["excludes"]):
            name = param[2]
            key = (owner, name)
            slot = self.p.annotations.setdefault(
                key, {"requires": [], "acquire": [], "excludes": []})
            for k2 in ("requires", "acquire", "excludes"):
                for e in annots[k2]:
                    if e not in slot[k2]:
                        slot[k2].append(e)
        if param is not None:
            return  # function declaration, not a data member
        if not owner:
            return
        # Member variable: name is the last id before '=', a brace init,
        # an annotation, or the end.
        stop = len(head)
        for k, t in enumerate(head):
            if t.text == "=" or t.text in ANNOT_ALL:
                stop = k
                break
        ids = [t for t in head[:stop] if t.kind == "id"]
        if len(ids) < 2:
            return
        member = ids[-1].text
        if member in TYPE_NOISE:
            return
        type_base = member_type(head[:head.index(ids[-1])])
        if type_base:
            self.p.members.setdefault(owner, {})[member] = type_base
        aliases = self.p.callbacks.get("<aliases>", set())
        if "function" in [t.text for t in head[:stop]] or \
                type_base in aliases or \
                any(t.text in aliases for t in head[:stop]):
            self.p.callbacks.setdefault(owner, set()).add(member)

    # -- function definitions ---------------------------------------------

    def handle_function(self, head: list[Tok], annots, body_at: int) -> None:
        # Name = identifier chain immediately before the parameter list:
        # the last non-annotation paren group outside the init list.
        param = None
        groups = []
        j = 0
        in_init = False
        while j < len(head):
            t = head[j]
            if t.text == "(":
                # find close within head
                depth, e = 0, j
                while e < len(head):
                    if head[e].text == "(":
                        depth += 1
                    elif head[e].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    e += 1
                prev = head[j - 1].text if j > 0 else ""
                groups.append((j, e, prev, prev in ANNOT_ALL, in_init))
                j = e + 1
                continue
            if t.text == ":" and j > 0 and head[j - 1].text == ")":
                in_init = True
            j += 1
        for g in reversed(groups):
            if not g[3] and not g[4] and g[2] and g[2] not in KEYWORDS \
                    and g[2] not in GUARD_TYPES and g[2] not in TYPE_NOISE:
                param = g
                break
        if param is None:
            # Not something we can name (operator overload etc.); still
            # walk the body so scopes stay balanced.
            self.parse_body(FunctionModel(
                qname=f"{self.rel}:<anon>", owner=self.class_chain(),
                name="<anon>", file=self.rel,
                line=head[0].line if head else 0), body_at, register=False)
            return
        # Walk the id/:: chain backwards from the name.
        k = param[0] - 1
        chain: list[str] = []
        while k >= 0:
            t = head[k]
            if t.kind == "id":
                chain.append(t.text)
                if k - 1 >= 0 and head[k - 1].text == "::":
                    k -= 2
                    continue
                break
            if t.text == "~" and chain:
                chain[-1] = "~" + chain[-1]
                break
            break
        chain.reverse()
        if not chain:
            chain = [param[2]]
        scope_owner = self.class_chain()
        owner_parts = ([scope_owner] if scope_owner else []) + chain[:-1]
        owner = "::".join(p for p in owner_parts if p)
        name = chain[-1]
        fn = FunctionModel(
            qname=(owner + "::" + name) if owner else name,
            owner=owner, name=name, file=self.rel,
            line=head[0].line if head else 0)
        fn.raw_requires = list(annots["requires"])      # type: ignore[attr-defined]
        fn.raw_acquire = list(annots["acquire"])        # type: ignore[attr-defined]
        fn.raw_excludes = list(annots["excludes"])      # type: ignore[attr-defined]
        if annots["requires"] or annots["acquire"] or annots["excludes"]:
            slot = self.p.annotations.setdefault(
                (owner, name), {"requires": [], "acquire": [], "excludes": []})
            for k2 in ("requires", "acquire", "excludes"):
                for e in annots[k2]:
                    if e not in slot[k2]:
                        slot[k2].append(e)
        self.parse_body(fn, body_at, register=True)

    # -- body walking ------------------------------------------------------

    def parse_body(self, fn: FunctionModel, open_at: int,
                   register: bool) -> None:
        """Walk one function body, recording abstract events on `fn`.
        Leaves self.i just past the closing brace."""
        toks = self.toks
        n = len(toks)
        fn.locals = {}                    # type: ignore[attr-defined]
        fn.local_callables = set()        # type: ignore[attr-defined]
        fn.abstract_events = []           # type: ignore[attr-defined]
        guards: list[dict] = []
        assumed: list[str] = []           # abstract exprs assumed held
        depth = 1
        j = open_at + 1
        stmt_start = True

        def local_held() -> tuple[tuple[str, ...], tuple[str, ...]]:
            intro = tuple(g["expr"] for g in guards if g["active"])
            return intro, tuple(assumed)

        while j < n and depth > 0:
            t = toks[j]
            txt = t.text
            prev = toks[j - 1].text if j > 0 else ""
            if txt == "{":
                depth += 1
                j += 1
                stmt_start = True
                continue
            if txt == "}":
                depth -= 1
                guards[:] = [g for g in guards if g["depth"] < depth + 1]
                j += 1
                stmt_start = True
                continue
            if txt == ";":
                j += 1
                stmt_start = True
                continue
            if txt == "[" and prev not in ("", None) and \
                    (toks[j - 1].kind == "id" or prev in (")", "]")):
                j += 1  # subscript; walk through it
                continue
            if txt == "[":
                # Lambda intro: [..](..) specifiers { body }. Bound as
                # `name = [..]`, a later `name(...)` calls this lambda.
                if prev == "=" and j >= 2 and toks[j - 2].kind == "id":
                    fn.local_callables.add(toks[j - 2].text)
                e = self.match_group(j, "[", "]")
                k = e
                if k < n and toks[k].text == "(":
                    k = self.match_group(k, "(", ")")
                # skip specifiers up to '{' (bounded)
                guard_k = k
                while k < n and toks[k].text not in ("{", ";", ")", ",") and \
                        k - guard_k < 24:
                    k += 1
                if k < n and toks[k].text == "{":
                    sub = FunctionModel(
                        qname=f"{fn.qname}::<lambda:{t.line}>",
                        owner=fn.owner, name="<lambda>", file=self.rel,
                        line=t.line, is_lambda=True)
                    sub.raw_requires = []     # type: ignore[attr-defined]
                    sub.raw_acquire = []      # type: ignore[attr-defined]
                    sub.raw_excludes = []     # type: ignore[attr-defined]
                    save = self.i
                    self.parse_body(sub, k, register=True)
                    j = self.i
                    self.i = save
                    continue
                j = e
                continue
            if t.kind == "id":
                nxt = toks[j + 1].text if j + 1 < n else ""
                # Guard declaration: [tdp::] GuardType var ( expr , ... )
                if txt in GUARD_TYPES and j + 1 < n and \
                        toks[j + 1].kind == "id" and j + 2 < n and \
                        toks[j + 2].text in ("(", "{"):
                    var = toks[j + 1].text
                    open_c = toks[j + 2].text
                    close_c = ")" if open_c == "(" else "}"
                    e = self.match_group(j + 2, open_c, close_c)
                    args = self.split_args(toks[j + 3:e - 1])
                    expr = args[0] if args else ""
                    deferred = any("defer" in a for a in args[1:])
                    shared = txt in ("SharedLock", "ReadLock")
                    intro, assm = local_held()
                    if not deferred:
                        fn.abstract_events.append(
                            ("acquire", expr, t.line, txt, intro, assm))
                    guards.append({"var": var, "expr": expr,
                                   "depth": depth, "active": not deferred,
                                   "shared": shared, "via": txt})
                    j = e
                    stmt_start = False
                    continue
                # var.lock() / var.unlock() on a tracked guard
                if prev in (".",) and txt in ("lock", "unlock") and \
                        nxt == "(":
                    base = toks[j - 2].text if j >= 2 else ""
                    g = next((g for g in guards if g["var"] == base), None)
                    if g is not None:
                        if txt == "lock" and not g["active"]:
                            g["active"] = True
                            intro, assm = local_held()
                            intro = tuple(x for x in intro if x != g["expr"])
                            fn.abstract_events.append(
                                ("acquire", g["expr"], t.line, g["via"],
                                 intro, assm))
                        elif txt == "unlock":
                            g["active"] = False
                        j = self.match_group(j + 1, "(", ")")
                        continue
                # mutex_.assert_held()
                if prev in (".", "->") and txt in ("assert_held",
                                                   "assert_held_shared") and \
                        nxt == "(":
                    base = self.expr_before(j - 1)
                    if base and base not in assumed:
                        assumed.append(base)
                    j = self.match_group(j + 1, "(", ")")
                    continue
                # CondVar wait with a guard argument
                if prev in (".", "->") and txt in WAIT_CALLS and nxt == "(":
                    e = self.match_group(j + 1, "(", ")")
                    args = self.split_args(toks[j + 2:e - 1])
                    g = next((g for g in guards
                              if args and g["var"] == args[0]), None)
                    if g is not None:
                        intro, assm = local_held()
                        fn.abstract_events.append(
                            ("block", "condvar-wait", txt, t.line, intro,
                             assm, g["expr"]))
                        j = e
                        continue
                # Intrinsic sleeps
                if txt in SLEEP_CALLS and nxt == "(":
                    intro, assm = local_held()
                    fn.abstract_events.append(
                        ("block", "sleep", txt, t.line, intro, assm, None))
                    j = self.match_group(j + 1, "(", ")")
                    continue
                # fstream construction / open
                if txt in FSTREAM_TYPES:
                    intro, assm = local_held()
                    fn.abstract_events.append(
                        ("block", "file-io", "std::" + txt, t.line, intro,
                         assm, None))
                    j += 1
                    continue
                if txt in FILE_IO_CALLS and nxt == "(":
                    qual = self.qualifier_before(j)
                    if txt in ("rename", "remove", "remove_all",
                               "create_directories", "resize_file") and \
                            (qual is None or "filesystem" not in qual):
                        pass  # require std::filesystem:: for these
                    else:
                        intro, assm = local_held()
                        fn.abstract_events.append(
                            ("block", "file-io", txt, t.line, intro, assm,
                             None))
                        j = self.match_group(j + 1, "(", ")")
                        continue
                # ::send / ::recv / ::poll ... (global-scope syscalls)
                if txt in GLOBAL_SOCKET_CALLS and nxt == "(" and \
                        prev == "::" and \
                        (j < 2 or toks[j - 2].kind != "id"):
                    intro, assm = local_held()
                    fn.abstract_events.append(
                        ("block", "socket-io", "::" + txt, t.line, intro,
                         assm, None))
                    j = self.match_group(j + 1, "(", ")")
                    continue
                # Generic call site
                if nxt == "(" and txt not in KEYWORDS and \
                        txt not in GUARD_TYPES and \
                        not txt.startswith("TDP_") and txt not in MUTEX_TYPES:
                    receiver = None
                    qualifier = None
                    if prev in (".", "->"):
                        base = toks[j - 2] if j >= 2 else None
                        if base is not None and base.kind == "id":
                            receiver = base.text
                        else:
                            receiver = "<expr>"
                    elif prev == "::":
                        qualifier = self.qualifier_before(j)
                    intro, assm = local_held()
                    fn.abstract_events.append(
                        ("call", txt, receiver, qualifier, t.line, intro,
                         assm))
                    j += 1
                    continue
                # Local declaration type capture: `Type [*&] name [=;({:]`
                if stmt_start and txt not in KEYWORDS and \
                        txt not in TYPE_NOISE:
                    k = j + 1
                    while k < n and toks[k].text in ("*", "&", "::") :
                        if toks[k].text == "::":
                            k += 2  # qualified type; keep last component
                        else:
                            k += 1
                    # re-derive the type base: last id in [j, k)
                    base_id = None
                    for b in range(k - 1, j - 1, -1):
                        if toks[b].kind == "id":
                            base_id = toks[b].text
                            break
                    if base_id and k < n and toks[k].kind == "id" and \
                            k + 1 < n and toks[k + 1].text in \
                            ("=", ";", "(", "{", ":", ","):
                        fn.locals.setdefault(toks[k].text, base_id)
                stmt_start = False
                j += 1
                continue
            # `(` and `,` also open declaration positions (for-init,
            # range-for, multi-declarator lists).
            stmt_start = txt in ("(", ",")
            j += 1
        self.i = j
        if register and not fn.qname.endswith(":<anon>"):
            self.p.functions.append(fn)
            self.p.by_name.setdefault(fn.name, []).append(fn)

    def expr_before(self, accessor_idx: int) -> str | None:
        """Reconstruct a short `a.b` / `x->y` style expression ending just
        before the accessor token at accessor_idx."""
        parts: list[str] = []
        k = accessor_idx
        # accessor_idx points at '.' or '->'
        k -= 1
        hops = 0
        while k >= 0 and hops < 8:
            t = self.toks[k]
            if t.kind == "id":
                parts.append(t.text)
                if k - 1 >= 0 and self.toks[k - 1].text in (".", "->"):
                    parts.append(".")
                    k -= 2
                    hops += 1
                    continue
                break
            if t.text == "]":
                # skip a subscript group backwards
                depth = 0
                while k >= 0:
                    if self.toks[k].text == "]":
                        depth += 1
                    elif self.toks[k].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                k -= 1
                hops += 1
                continue
            break
        if not parts:
            return None
        parts.reverse()
        return "".join(parts)

    def qualifier_before(self, idx: int) -> str | None:
        """For `A::B::name(`, with idx at name, return "A::B"."""
        if idx < 1 or self.toks[idx - 1].text != "::":
            return None
        parts: list[str] = []
        k = idx - 1
        while k >= 1 and self.toks[k].text == "::":
            if self.toks[k - 1].kind == "id":
                parts.append(self.toks[k - 1].text)
                k -= 2
            else:
                parts.append("")  # global ::
                break
        parts.reverse()
        return "::".join(parts)


# -- resolution ------------------------------------------------------------


def resolve_lock_expr(p: Program, fn: FunctionModel, expr: str) -> str:
    """Map an abstract lock expression to a canonical lock name."""
    expr = expr.strip()
    if not expr:
        return "<unknown>"
    expr = re.sub(r"^this\s*->\s*", "", expr)
    expr = expr.replace("->", ".")
    expr = re.sub(r"\[[^\]]*\]", "", expr)  # drop subscripts
    expr = re.sub(r"\([^)]*\)", "", expr)   # drop call parens
    parts = [s for s in expr.split(".") if s]
    if not parts:
        return "<unknown>"
    if len(parts) == 1:
        d = p.mutex_for(fn.owner, parts[0])
        if d:
            return d.canonical
        return f"{fn.owner or '?'}::{parts[0]}"
    base, member = parts[0], parts[-1]
    base_type = getattr(fn, "locals", {}).get(base)
    if base_type is None and fn.owner:
        chain = fn.owner.split("::")
        while chain and base_type is None:
            base_type = p.members.get("::".join(chain), {}).get(base)
            chain.pop()
    if base_type:
        cls = p.resolve_class(base_type)
        # Walk intermediate components through member type maps.
        for mid in parts[1:-1]:
            if cls is None:
                break
            nxt = p.members.get(cls, {}).get(mid)
            cls = p.resolve_class(nxt) if nxt else None
        if cls:
            d = p.mutex_for(cls, member)
            if d:
                return d.canonical
    d = p.mutex_for(fn.owner, member)
    if d:
        return d.canonical
    return f"{fn.owner or '?'}::{member}"


def resolve_program(p: Program) -> None:
    """Second phase: rewrite abstract events into resolved model fields."""
    for fn in p.functions:
        # Annotations: definition-site plus any declaration-site entries.
        slot = {"requires": [], "acquire": [], "excludes": []}
        for key in [(fn.owner, fn.name),
                    (fn.owner.split("::")[-1] if fn.owner else "", fn.name)]:
            got = p.annotations.get(key)
            if got:
                for k in slot:
                    for e in got[k]:
                        if e not in slot[k]:
                            slot[k].append(e)
        fn.requires = [resolve_lock_expr(p, fn, e) for e in slot["requires"]]
        fn.excludes = [resolve_lock_expr(p, fn, e) for e in slot["excludes"]]
        annot_acquires = [resolve_lock_expr(p, fn, e) for e in slot["acquire"]]
        # `_locked` naming convention: no annotation but the owner class has
        # exactly one mutex member — assume it is held on entry.
        if not fn.requires and fn.name.endswith("_locked") and fn.owner:
            owned = [d for (own, _), d in p.mutexes.items() if own == fn.owner]
            if len(owned) == 1:
                fn.requires = [owned[0].canonical]
        requires = tuple(dict.fromkeys(fn.requires))

        def held_of(intro: tuple[str, ...], assm: tuple[str, ...]):
            intro_r = tuple(dict.fromkeys(
                resolve_lock_expr(p, fn, e) for e in intro))
            assm_r = tuple(dict.fromkeys(
                resolve_lock_expr(p, fn, e) for e in assm))
            held = tuple(dict.fromkeys(requires + assm_r + intro_r))
            return held, intro_r

        for ev in getattr(fn, "abstract_events", []):
            if ev[0] == "acquire":
                _, expr, line, via, intro, assm = ev
                held, _ = held_of(intro, assm)
                fn.acquires.append(AcquireSite(
                    lock=resolve_lock_expr(p, fn, expr), line=line, via=via,
                    held=held))
            elif ev[0] == "block":
                _, kind, what, line, intro, assm, exempt = ev
                held, intro_r = held_of(intro, assm)
                fn.blocks.append(BlockOp(
                    kind=kind, what=what, line=line, held=held,
                    introduced=intro_r,
                    exempt=resolve_lock_expr(p, fn, exempt) if exempt else None))
            elif ev[0] == "call":
                _, name, receiver, qualifier, line, intro, assm = ev
                held, intro_r = held_of(intro, assm)
                fn.calls.append(CallSite(
                    name=name, receiver=receiver, qualifier=qualifier,
                    line=line, held=held, introduced=intro_r))
        for a in annot_acquires:
            fn.acquires.append(AcquireSite(
                lock=a, line=fn.line, via="TDP_ACQUIRE", held=requires))


EXCLUDED_FILES = {"src/util/sync.hpp"}


def extract_tree(root: str, rel_files: list[tuple[str, str]]) -> Program:
    """rel_files: list of (relpath, text). Returns a resolved Program."""
    p = Program(root=root)
    for rel, text in rel_files:
        if rel.replace("\\", "/") in EXCLUDED_FILES:
            continue
        FileWalker(p, rel, text).walk()
    resolve_program(p)
    return p
