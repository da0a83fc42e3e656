"""Compiler from ASM-lite programs to anchored rewrite rule sets.

The compiled automaton realizes one interpreter transition as a fixed
cycle of focus-node colors acting as a program counter:

    boot -> s0 .. s{n-1} -> m0 .. m{m-1} -> k0 .. k{c-1} -> s0
                                                  \\-> done (nothing fired)

* boot (once): create the shared true/false marker nodes.
* s{i} (eval): materialize one compound value into a scratch register
  edge ($r<j>) or one condition outcome into a bit edge ($b<j>, pointing
  at the true or false marker).  Critical terms, atoms and {} take no
  step: rules read them where they sit, on the Criticals node's term,
  #atom_<name> and #empty edges; only a commit operand that names a
  critical term some commit writes is copied into a register.  Each run
  of consecutive register steps under one non-trivial path condition
  is wrapped in one guard stage; bit steps always run.  A guard has
  one rule per row of its condition's truth table that satisfies it
  and one bare-focus rule for the rest (compile_lock_wrapping).
* m{i} (commit): rewrite one critical-term edge or one function
  location from registers and from edges no commit writes, so parallel
  assignments all read the pre-transition state; commits are guarded
  by runs like eval steps, and a guard that lets its run through marks
  the round with a $go edge from the focus to the false marker.
* k{i} (cleanup): each of the c stages drops up to three register or
  bit edges written under one path condition, in one tick; the first
  stage of a condition's labels skips past all of them when they are
  unset.  The labels written unconditionally come last, and the last
  stage, which may drop no label at all, drops the $go mark too and
  loops to s0, or halts in "done" if there is none.  A program with
  an unconditional commit fires in every round: its guards set no mark
  and its last cleanup stage always loops to s0.

Lowering turns the program body into stage lists; a stage is
(phase, path condition, emitter, args), and emitter(ctx, entry, nxt,
*args) emits its rules.  _emit_stages is the one place that gives each
stage its colour (chain prefix plus index), links it to the next, and
wraps each maximal run of stages under one path condition that is not
trivially true in a single guard.

Value nodes are never deleted and committed values are never
duplicated: every constructor first scans for an existing node
(maximal sharing) and only builds one when the scan comes up empty.

Blocking between rules relies solely on the strict-subset maximality
filter.  Two conventions keep that sound under any tie-breaking order:
every rule that must suppress a smaller "exit" or fallback rule binds
the false marker as a pad cell, so its matched node set is strictly
larger even when value cells coincide; and loop rules recolor the nodes
they have handled so a loop can never re-fire on the same node.

Patterns bind cells injectively, so a template whose cells may
legitimately coincide (two operands holding the same value, an operand
that is the empty set, ...) names them as its pool and is expanded into
alias variants, one per set partition of the pool whose merged cells
agree on their colour and close no containment cycle.  A template
without a pool is its own one variant; validate_ruleset checks its
shape along with every other generated rule.
"""
from __future__ import annotations

import itertools

from . import asmlang as ast
from . import interpreter
from . import tangle
from .pattern import Rule, RuleSet, has_directed_cycle, validate_ruleset

CLEANUP_CHUNK = 3    # labels a cleanup stage drops in one tick, at most

BOOT = "boot"
DONE = "done"
CHOICE_ERROR = "choice-error"

# protocol mark colors for value nodes
SUGG = "sugg"        # singleton suggestion under construction
TESTED = "tested"    # singleton candidate already rejected
MKU = "mku"          # union: plain candidate member found in an operand
MKUR = "mkur"        # union: rejected-candidate member found in an operand
UREJ = "urej"        # union: candidate already rejected
MKB = "mkb"          # union build: member already copied
UBUILD = "ubuild"    # union result under construction

# scratch edge labels shared by all protocol instances (never live
# across protocol boundaries)
SW = "$sw"       # singleton suggestion handle
CAND = "$cand"   # candidate under examination
SEED = "$seed"   # union witness member
BW = "$bw"       # union build handle
LOC = "$loc"     # resolved location tuple
TST = "$tst"     # negative-edge mode: singleton reject mark
REJ = "$rej"     # negative-edge mode: union reject mark
GO = "$go"       # commit guard: an assignment fires this round


class CompileError(Exception):
    pass


# -- path-condition formulas -------------------------------------------

class Formula:
    """Boolean function over bit indices as an explicit truth table.

    support: sorted tuple of bit indices; rows: the satisfying
    assignments, each a tuple of booleans aligned with the support.
    """

    __slots__ = ("support", "rows")

    def __init__(self, support, rows):
        self.support = tuple(support)
        self.rows = frozenset(tuple(r) for r in rows)

    @staticmethod
    def true():
        return Formula((), {()})

    @staticmethod
    def of_bit(bit):
        return Formula((bit,), {(True,)})

    def _on(self, support):
        """Rows re-expressed over a larger support."""
        pos = {b: i for i, b in enumerate(support)}
        own = [pos[b] for b in self.support]
        out = set()
        for combo in itertools.product((False, True), repeat=len(support)):
            if tuple(combo[i] for i in own) in self.rows:
                out.add(combo)
        return out

    def negate(self):
        full = set(itertools.product((False, True), repeat=len(self.support)))
        return Formula(self.support, full - self.rows).minimize()

    def conj(self, other):
        support = tuple(sorted(set(self.support) | set(other.support)))
        return Formula(support,
                       self._on(support) & other._on(support)).minimize()

    def disj(self, other):
        support = tuple(sorted(set(self.support) | set(other.support)))
        return Formula(support,
                       self._on(support) | other._on(support)).minimize()

    def minimize(self):
        """Drop support bits the function does not depend on."""
        support = list(self.support)
        rows = set(self.rows)
        i = 0
        while i < len(support):
            flipped = {r[:i] + (not r[i],) + r[i + 1:] for r in rows}
            if flipped == rows:
                rows = {r[:i] + r[i + 1:] for r in rows}
                support.pop(i)
            else:
                i += 1
        return Formula(support, rows)

    def assignments(self):
        """All (row, satisfied) pairs; row is a tuple of (bit, bool)."""
        out = []
        for combo in itertools.product((False, True),
                                       repeat=len(self.support)):
            out.append((tuple(zip(self.support, combo)), combo in self.rows))
        return out

    def is_true(self):
        """True for the constant; exact on minimal formulas, which every
        constructor and connective returns."""
        return not self.support and bool(self.rows)

    def is_false(self):
        return not self.rows


# -- rule emission -------------------------------------------------------

class EmitContext:
    """Accumulates one compilation's rules in emission order, emitted in
    the edge mode negative_edges picks."""

    def __init__(self, negative_edges=False):
        self.negative_edges = negative_edges
        self.rules = []

    def emit(self, name, cells, edges, recolor=(), add=(), delete=(),
             creates=(), pool=(), negs=()):
        """Emit a rule template, expanded into its alias variants.

        cells: [(name, color-or-None)] with the focus named "C";
        pool: the cells any of which may legitimately bind one node,
        one variant per way to merge them (_variants).  Each variant's
        edge, edit and recolor lists are deduplicated once.  A template
        whose pool holds fewer than two cells is its own one variant,
        built without the quotient search or a renaming pass.
        """
        if len(pool) < 2:
            recolor = _dedupe(recolor)
            if len({n for n, _c in recolor}) < len(recolor):
                raise CompileError("template %s has no feasible variant"
                                   % name)
            self.rules.append(Rule(name, cells, _dedupe(edges),
                                   recolor=recolor, add=_dedupe(add),
                                   delete=_dedupe(delete), creates=creates,
                                   negs=_dedupe(negs)))
            return
        before = len(self.rules)
        for mapping, qcells, qedges, suffix in _variants(cells, edges, pool):
            rc = _dedupe((mapping.get(n, n), c) for n, c in recolor)
            if len({n for n, _c in rc}) < len(rc):
                continue  # the variant recolors one node two ways
            rule = Rule(name + suffix, qcells, qedges, recolor=rc,
                        add=_remap(mapping, add),
                        delete=_remap(mapping, delete), creates=creates,
                        negs=_remap(mapping, negs))
            self.rules.append(rule)
        if len(self.rules) == before:
            raise CompileError("template %s has no feasible variant" % name)


def _dedupe(items):
    """Items in first-occurrence order, duplicates dropped."""
    return list(dict.fromkeys(items))


def _remap(mapping, edges):
    """Edges renamed through a variant's mapping, duplicates dropped."""
    return _dedupe((mapping.get(a, a), l, mapping.get(b, b))
                   for a, l, b in edges)


def _partitions(items):
    """Every set partition of items, as lists of blocks, each block in
    item order; the partition into singletons comes first (Knuth,
    TAOCP 4A, 7.2.1.5)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        yield [[first]] + blocks
        for i, block in enumerate(blocks):
            yield blocks[:i] + [[first] + block] + blocks[i + 1:]


def _variants(cells, edges, pool):
    """All feasible quotients of a pattern, one per set partition of the
    pool: the cells any of which may bind one node.

    Yields (mapping, cells, edges, name-suffix); the mapping takes each
    pool cell to its block's lead, the block's first cell.  The template
    itself comes first, then the other quotients by non-increasing cell
    count, so no variant is followed by a larger sibling that could
    cover it (kernel.PlanIndex.final).  A quotient is dropped when
    merged cells demand different colors or the merged edge graph gains
    a directed cycle (well-founded values never match those).  A merge
    can close a cycle only through an edge out of a merged cell, so
    without such an edge that is left to validate_ruleset, which checks
    every generated rule.
    """
    color = dict(cells)
    pool = [n for n, _c in cells if n in pool]     # in cell order
    check_cycles = any(a in pool for a, _l, _b in edges)
    for blocks in sorted(_partitions(pool), key=len, reverse=True):
        lead = {n: block[0] for block in blocks for n in block}
        merged = [block for block in blocks if len(block) > 1]
        merged_color = {}
        for block in merged:
            block_colors = {color[x] for x in block} - {None}
            if len(block_colors) > 1:
                break
            merged_color[block[0]] = (block_colors.pop() if block_colors
                                      else None)
        else:
            qcells = [(n, merged_color.get(n, c)) for n, c in cells
                      if lead.get(n, n) == n]
            qedges = _dedupe((lead.get(a, a), l, lead.get(b, b))
                             for a, l, b in edges)
            if check_cycles:
                out = {n: [] for n, _c in qcells}
                for a, _l, b in qedges:
                    out[a].append(b)
                if has_directed_cycle(out):
                    continue
            yield (lead, qcells, qedges,
                   "".join("~" + m for m in sorted(
                       "=".join(sorted(b)) for b in merged)))


def _pad(cells, edges):
    """Bind the false marker as a pad cell, enlarging the matched node
    set so smaller exit/fallback rules stay strictly blocked."""
    return (cells + [("F", tangle.MARKER)],
            edges + [("C", tangle.FALSE_EDGE, "F")])


# -- construct emitters ----------------------------------------------------
#
# Each emitter takes the entry color, the color to hand over to, and
# operand labels (registers, or the edges leaf terms sit on; see
# _Lowerer); every cell list names the focus "C" carrying the entry
# color of the tick the rule fires in.

def compile_copy(ctx, entry, nxt, name, dst):
    """Read a critical term into a register, for a commit operand that
    another commit of the round may rewrite first.  One tick."""
    ctx.emit("eval:%s:copy" % entry,
             [("C", entry), ("X", None)], [("C", name, "X")],
             add=[("C", dst, "X")], recolor=[("C", nxt)])


def compile_conditional(ctx, entry, nxt, kind, left, right, bit):
    """Bit test: point `bit` at the true/false marker.  One tick.

    kind "member" holds iff left's value is an element of right's;
    kind "eq" holds iff both operands share a node.  The false rule is
    a fallback that also absorbs unset operand registers.
    """
    if kind == "member":
        cells = [("C", entry), ("X", None), ("S", None),
                 ("T", tangle.MARKER)]
        edges = [("C", left, "X"), ("C", right, "S"),
                 ("X", tangle.ELEM, "S"), ("C", tangle.TRUE_EDGE, "T")]
    elif kind == "eq":
        cells = [("C", entry), ("X", None), ("T", tangle.MARKER)]
        edges = [("C", left, "X"), ("C", right, "X"),
                 ("C", tangle.TRUE_EDGE, "T")]
    else:
        raise CompileError("unknown bit test %r" % kind)
    cells, edges = _pad(cells, edges)
    ctx.emit("conditional:%s:true" % entry, cells, edges,
             add=[("C", bit, "T")], recolor=[("C", nxt)])
    ctx.emit("conditional:%s:false" % entry,
             [("C", entry), ("F", tangle.MARKER)],
             [("C", tangle.FALSE_EDGE, "F")],
             add=[("C", bit, "F")], recolor=[("C", nxt)])


def compile_lock_wrapping(ctx, entry, run, skip, formula, phase, add=()):
    """Guard stage of a run of stages under one path condition, carrying
    `phase`, the run's first stage's.  A rule per truth-table row that
    satisfies `formula`, named with the row's index, adds `add` and
    jumps to `run`, the run's first stage; the skip rule, the bare
    focus, jumps to `skip`, the first stage after the run.

    A row rule binds the marker each bit of its row points at: all true
    bits share the true-marker cell and all false bits the false-marker
    cell, and the false marker is always bound, as the pad, so each row
    rule strictly contains the skip rule.  The rows are mutually
    exclusive, so on a satisfying row its rule is the one maximal match,
    and otherwise only the skip rule matches: one tick either way.  That
    needs every bit of the formula's support set when the guard runs,
    and it is (_emit_stages says why).

    A commit run's guard adds the $go mark from the focus to the false
    marker, the row's pad cell, so the pattern gains no cell: the mark
    tells the last cleanup stage that the round fired (compile_cleanup).
    """
    for i, (row, sat) in enumerate(formula.assignments()):
        if not sat:
            continue
        cells, edges = [("C", entry)], []
        if any(v for _b, v in row):
            cells.append(("T", tangle.MARKER))
            edges.append(("C", tangle.TRUE_EDGE, "T"))
        cells.append(("F", tangle.MARKER))
        edges.append(("C", tangle.FALSE_EDGE, "F"))
        edges += [("C", "$b%d" % bit, "T" if v else "F") for bit, v in row]
        ctx.emit("%s:%s:sat%d" % (phase, entry, i), cells, edges, add=add,
                 recolor=[("C", run)])
    ctx.emit("%s:%s:skip" % (phase, entry), [("C", entry)], [],
             recolor=[("C", skip)])


def compile_cleanup(ctx, entry, nxt, labels, skip, again):
    """Drop a chunk of register and bit labels that share one path
    condition, all in one tick.  One tick for the chunk, or, given
    `skip`, one tick past the chunk's whole group when it is unset.

    The drop rule binds every label of the chunk to a cell of its own,
    marker-coloured for a bit, and deletes its edges.  All those cells
    are its pool, so labels pointing at one node, registers holding one
    value or bits at one marker, bind one cell of a variant.  The skip
    rule, the bare focus, hands over to `skip`, the first stage after
    the group.

    All or none: every eval stage that runs writes its label (an empty
    choice halts the run before cleanup).  A bit is written by a
    conditional stage, which runs unguarded, so every bit is set at
    cleanup.  A register is written by exactly one eval stage, which
    runs iff its path condition holds; that condition reads only bits,
    and no stage rewrites a bit before cleanup.  So the labels of one
    path condition are either all set or all unset, and a variant of
    the drop rule matches exactly when they are set.  Each variant
    binds a marker or a register's node besides the focus, so it
    strictly contains the skip rule, and the skip rule fires only when
    the group is unset: a chunk never drops part of itself, and a skip
    never passes over a set label.  Only a group's first chunk needs a
    skip rule: once it was dropped, the rest of the group is set too.

    The chain's last stage, given `again`, branches: a twin of each
    drop rule also binds the $go mark, which a commit run's guard set
    when the round fired (compile_lock_wrapping), and the true marker,
    drops the mark and goes to `again`.  The last stage holds registers
    only, and no register points at a marker, so each twin binds the
    true and the false marker on top of its drop rule's nodes and
    strictly contains it: with the mark set the twin is the one maximal
    match.  When no
    register is written unconditionally the last stage holds no label:
    its drop rule is the bare focus, and its twin binds the focus and
    both markers, so it still strictly contains it.

    Only registers and bits are dropped here.  Leaf operands are read on
    edges no eval stage writes (_Lowerer), so there is nothing to drop
    for them, and a commit operand copied into a register is dropped
    like any other register.
    """
    pool = ["X%d" % i for i in range(len(labels))]
    cells = [("C", entry)] + [
        (x, tangle.MARKER if l.startswith("$b") else None)
        for x, l in zip(pool, labels)]
    edges = [("C", l, x) for x, l in zip(pool, labels)]
    name = "cleanup:%s:drop" % entry
    ctx.emit(name, cells, edges, delete=edges, recolor=[("C", nxt)],
             pool=pool)
    if again:
        ctx.emit(name + "-again",
                 cells + [("T", tangle.MARKER), ("F", tangle.MARKER)],
                 edges + [("C", GO, "F"), ("C", tangle.TRUE_EDGE, "T")],
                 delete=edges + [("C", GO, "F")],
                 recolor=[("C", again)], pool=pool)
    if skip:
        ctx.emit("cleanup:%s:skip" % entry, [("C", entry)], [],
                 recolor=[("C", skip)])


def compile_choice(ctx, entry, nxt, source, dst):
    """Pick any element of the source operand's set.  One tick.

    Every element is a maximal match, so the random scheduler realizes
    the nondeterministic choice; the empty-set fallback halts the
    automaton in the error color.
    """
    cells, edges = _pad([("C", entry), ("S", None), ("X", None)],
                        [("C", source, "S"), ("X", tangle.ELEM, "S")])
    ctx.emit("choice:%s:pick" % entry, cells, edges,
             add=[("C", dst, "X")], recolor=[("C", nxt)])
    ctx.emit("choice:%s:empty" % entry,
             [("C", entry), ("S", None)], [("C", source, "S")],
             recolor=[("C", CHOICE_ERROR)])


def compile_pairing(ctx, entry, nxt, first, second, dst):
    """Reuse the committed pair node when one exists, else create it.
    One tick either way."""
    cells, edges = _pad([("C", entry), ("X", None), ("Y", None),
                         ("P", None)],
                        [("C", first, "X"), ("C", second, "Y"),
                         ("X", tangle.FST, "P"), ("Y", tangle.SND, "P")])
    ctx.emit("pairing:%s:reuse" % entry, cells, edges,
             add=[("C", dst, "P")], recolor=[("C", nxt)], pool=["X", "Y"])
    ctx.emit("pairing:%s:create" % entry,
             [("C", entry), ("X", None), ("Y", None)],
             [("C", first, "X"), ("C", second, "Y")],
             creates=[("P", tangle.PLAIN, tangle.PAIR)],
             add=[("X", tangle.FST, "P"), ("Y", tangle.SND, "P"),
                  ("C", dst, "P")],
             recolor=[("C", nxt)], pool=["X", "Y"])


def compile_apply_read(ctx, entry, nxt, fname, argregs, dst):
    """Location read: the stored value on a hit, the empty set on a
    miss.  One tick.  The miss rule binds the empty-set node both to
    deliver it and to stay a strict subset of the hit rule."""
    k = len(argregs)
    arg_cells = [("A%d" % i, None) for i in range(1, k + 1)]
    arg_edges = [("C", argregs[i - 1], "A%d" % i) for i in range(1, k + 1)]
    pool = [c for c, _color in arg_cells]

    cells = [("C", entry)] + arg_cells + [
        ("T", None), ("V", None), ("E", tangle.PLAIN)]
    edges = list(arg_edges) + [("C", fname, "T")]
    edges += [("T", tangle.arg_label(i), "A%d" % i) for i in range(1, k + 1)]
    edges += [("T", tangle.VAL, "V"), ("C", tangle.EMPTY_EDGE, "E")]
    cells, edges = _pad(cells, edges)
    ctx.emit("eval:%s:hit" % entry, cells, edges,
             add=[("C", dst, "V")], recolor=[("C", nxt)],
             pool=pool + ["V", "E"])

    cells = [("C", entry)] + arg_cells + [("E", tangle.PLAIN)]
    edges = list(arg_edges) + [("C", tangle.EMPTY_EDGE, "E")]
    ctx.emit("eval:%s:miss" % entry, cells, edges,
             add=[("C", dst, "E")], recolor=[("C", nxt)], pool=pool + ["E"])


def compile_apply_write(ctx, entry, nxt, fname, argregs, src):
    """Location write: resolve the tuple node (creating it on a miss),
    unlink the old value edge, link the new one.  Three ticks."""
    k = len(argregs)
    unlink = entry + ".u"
    link = entry + ".l"
    arg_cells = [("A%d" % i, None) for i in range(1, k + 1)]
    arg_edges = [("C", argregs[i - 1], "A%d" % i) for i in range(1, k + 1)]
    tuple_edges = [("T", tangle.arg_label(i), "A%d" % i)
                   for i in range(1, k + 1)]
    pool = [c for c, _color in arg_cells]

    cells, edges = _pad([("C", entry)] + arg_cells + [("T", None)],
                        arg_edges + [("C", fname, "T")] + tuple_edges)
    ctx.emit("commit:%s:resolve-hit" % entry, cells, edges,
             add=[("C", LOC, "T")], recolor=[("C", unlink)], pool=pool)
    ctx.emit("commit:%s:resolve-miss" % entry,
             [("C", entry)] + arg_cells, arg_edges,
             creates=[("T", tangle.PLAIN, tangle.TUPLE)],
             add=[("C", fname, "T")] + tuple_edges + [("C", LOC, "T")],
             recolor=[("C", unlink)], pool=pool)

    cells, edges = _pad([("C", unlink), ("T", None), ("V", None)],
                        [("C", LOC, "T"), ("T", tangle.VAL, "V")])
    ctx.emit("commit:%s:unlink" % entry, cells, edges,
             delete=[("T", tangle.VAL, "V")],
             recolor=[("C", link)])
    ctx.emit("commit:%s:unlink-skip" % entry,
             [("C", unlink), ("T", None)], [("C", LOC, "T")],
             recolor=[("C", link)])

    ctx.emit("commit:%s:link" % entry,
             [("C", link), ("T", None), ("X", None)],
             [("C", LOC, "T"), ("C", src, "X")],
             add=[("T", tangle.VAL, "X")],
             delete=[("C", LOC, "T")],
             recolor=[("C", nxt)])


def compile_term_commit(ctx, entry, nxt, name, src):
    """Swing one critical-term edge to the source operand's node.  One
    tick."""
    ctx.emit("commit:%s:term" % entry,
             [("C", entry), ("X", None), ("Y", None)],
             [("C", name, "X"), ("C", src, "Y")],
             delete=[("C", name, "X")],
             add=[("C", name, "Y")],
             recolor=[("C", nxt)], pool=["X", "Y"])


def compile_singleton(ctx, entry, nxt, source, dst):
    """{x}: scan the parents of x for an existing committed singleton,
    else commit a fresh suggestion node.

    A suggestion node holding x is created first, so the exit rule can
    deliver it by a single recolor.  Candidate parents are examined one
    at a time; rejected ones are marked (recolored, or flagged with a
    scratch edge in negative-edge mode) so the pick loop terminates,
    and all marks are undone in the restore stage.
    """
    neg = ctx.negative_edges
    pick = entry + ".p"
    check = entry + ".c"
    restore = entry + ".t"

    ctx.emit("singleton:%s:suggest" % entry,
             [("C", entry), ("X", None)], [("C", source, "X")],
             creates=[("W", SUGG, tangle.SET)],
             add=[("X", tangle.ELEM, "W"), ("C", SW, "W")],
             recolor=[("C", pick)])

    cells, edges = _pad(
        [("C", pick), ("X", None), ("U", tangle.PLAIN), ("W", SUGG)],
        [("C", source, "X"), ("X", tangle.ELEM, "U"), ("C", SW, "W")])
    ctx.emit("singleton:%s:pick" % entry, cells, edges,
             add=[("C", CAND, "U")], recolor=[("C", check)],
             negs=[("U", TST, "W")] if neg else ())
    ctx.emit("singleton:%s:exit" % entry,
             [("C", pick), ("X", None), ("W", SUGG)],
             [("C", source, "X"), ("C", SW, "W")],
             add=[("C", dst, "W")],
             recolor=[("W", tangle.PLAIN), ("C", restore)])

    ctx.emit("singleton:%s:accept" % entry,
             [("C", check), ("X", None), ("U", tangle.PLAIN),
              ("W", SUGG)],
             [("C", source, "X"), ("C", CAND, "U"),
              ("X", tangle.ELEM, "U"), ("C", SW, "W")],
             add=[("C", dst, "U")],
             delete=[("C", CAND, "U"), ("X", tangle.ELEM, "W")],
             recolor=[("W", tangle.JUNK), ("C", restore)])
    cells, edges = _pad(
        [("C", check), ("X", None), ("U", tangle.PLAIN), ("W", SUGG),
         ("Y", None)],
        [("C", source, "X"), ("C", CAND, "U"), ("X", tangle.ELEM, "U"),
         ("C", SW, "W"), ("Y", tangle.ELEM, "U")])
    reject_edits = dict(delete=[("C", CAND, "U")], recolor=[("C", pick)])
    if neg:
        reject_edits["add"] = [("U", TST, "W")]
    else:
        reject_edits["recolor"].append(("U", TESTED))
    ctx.emit("singleton:%s:reject" % entry, cells, edges, **reject_edits)

    if neg:
        cells, edges = _pad(
            [("C", restore), ("X", None), ("W", None), ("U", None)],
            [("C", source, "X"), ("C", SW, "W"), ("U", TST, "W")])
        ctx.emit("singleton:%s:restore" % entry, cells, edges,
                 delete=[("U", TST, "W")])
    else:
        cells, edges = _pad(
            [("C", restore), ("X", None), ("U", TESTED), ("W", None)],
            [("C", source, "X"), ("X", tangle.ELEM, "U"), ("C", SW, "W")])
        ctx.emit("singleton:%s:restore" % entry, cells, edges,
                 recolor=[("U", tangle.PLAIN)])
    ctx.emit("singleton:%s:restore-exit" % entry,
             [("C", restore), ("X", None), ("W", None)],
             [("C", source, "X"), ("C", SW, "W")],
             delete=[("C", SW, "W")],
             recolor=[("C", nxt)])


def compile_union(ctx, entry, nxt, first, second, dst):
    """first U second: find the committed union node or build it.

    Dispatch handles x U x and empty operands in one tick.  Otherwise a
    witness member of the first operand is picked; every committed node
    that might equal the union must contain the witness, so scanning
    the witness's parents is exhaustive.  Each candidate is checked by
    marking its members that occur in an operand, then testing the
    three inclusions.  The empty set is marked and copied like any other
    member: every protocol restores its marks before it hands over, so
    the rules that find it plain by its #empty edge, which run only
    between protocols, always find it.

    Without negative edges, rejected candidates are recolored, and a
    rejected candidate may itself be a member of an operand or of a
    later candidate, so every member scan runs in two variants (plain
    and rejected, with separate mark colors restoring to the original);
    all reject marks are dropped before the build phase copies members.
    """
    neg = ctx.negative_edges
    seed = entry + ".s"
    pick = entry + ".p"
    mark = entry + ".k1"
    sub = entry + ".k2"     # U subset of union of operands
    supa = entry + ".k3"    # first operand subset of U
    supb = entry + ".k4"
    acc = entry + ".k5"
    unmark_a = entry + ".g"
    unmark_j = entry + ".j"
    rej_done = entry + ".j2"
    prebuild = entry + ".tb"
    build = entry + ".w"
    cpa = entry + ".wa"
    cpb = entry + ".wb"
    unmark_b = entry + ".wu"
    restore = entry + ".t"

    # member scans run once per color a scanned node may be in; with
    # negative edges rejected candidates stay plain, so one pass does
    scans = ((tangle.PLAIN, MKU, ""),) if neg else (
        (tangle.PLAIN, MKU, ""), (UREJ, MKUR, "-rej"))

    # dispatch: same node, or an empty operand, in one tick
    cells, edges = _pad([("C", entry), ("X", None)],
                        [("C", first, "X"), ("C", second, "X")])
    ctx.emit("union-check:%s:same" % entry, cells, edges,
             add=[("C", dst, "X")], recolor=[("C", nxt)])
    cells, edges = _pad([("C", entry), ("E", tangle.PLAIN), ("Y", None)],
                        [("C", first, "E"), ("C", second, "Y"),
                         ("C", tangle.EMPTY_EDGE, "E")])
    ctx.emit("union-check:%s:left-empty" % entry, cells, edges,
             add=[("C", dst, "Y")], recolor=[("C", nxt)])
    cells, edges = _pad([("C", entry), ("X", None), ("E", tangle.PLAIN)],
                        [("C", first, "X"), ("C", second, "E"),
                         ("C", tangle.EMPTY_EDGE, "E")])
    ctx.emit("union-check:%s:right-empty" % entry, cells, edges,
             add=[("C", dst, "X")], recolor=[("C", nxt)])
    ctx.emit("union-check:%s:general" % entry,
             [("C", entry)], [], recolor=[("C", seed)])

    # witness member of the first operand
    ctx.emit("union-check:%s:seed" % entry,
             [("C", seed), ("S", None), ("M", None)],
             [("C", first, "S"), ("M", tangle.ELEM, "S")],
             add=[("C", SEED, "M")], recolor=[("C", pick)])

    # candidate loop over the witness's parents
    cells, edges = _pad([("C", pick), ("M", None), ("U", tangle.PLAIN)],
                        [("C", SEED, "M"), ("M", tangle.ELEM, "U")])
    ctx.emit("union-check:%s:pick" % entry, cells, edges,
             add=[("C", CAND, "U")], recolor=[("C", mark)],
             negs=[("U", REJ, "M")] if neg else ())
    ctx.emit("union-check:%s:pick-exit" % entry,
             [("C", pick), ("M", None)], [("C", SEED, "M")],
             recolor=[("C", prebuild)])

    # mark candidate members occurring in an operand
    for tag, reg in (("a", first), ("b", second)):
        for scol, mcol, stag in scans:
            cells, edges = _pad(
                [("C", mark), ("S", None), ("U", tangle.PLAIN),
                 ("X", scol)],
                [("C", reg, "S"), ("C", CAND, "U"),
                 ("X", tangle.ELEM, "S"), ("X", tangle.ELEM, "U")])
            ctx.emit("union-check:%s:mark-%s%s" % (entry, tag, stag),
                     cells, edges, recolor=[("X", mcol)], pool=["S", "U"])
    ctx.emit("union-check:%s:mark-exit" % entry,
             [("C", mark), ("U", tangle.PLAIN)],
             [("C", CAND, "U")],
             recolor=[("C", sub)])

    # any unmarked member of the candidate is outside both operands
    for scol, _mcol, stag in scans:
        cells, edges = _pad(
            [("C", sub), ("U", tangle.PLAIN), ("X", scol)],
            [("C", CAND, "U"), ("X", tangle.ELEM, "U")])
        ctx.emit("union-check:%s:sub-reject%s" % (entry, stag),
                 cells, edges, recolor=[("C", unmark_j)])
    ctx.emit("union-check:%s:sub-pass" % entry,
             [("C", sub), ("U", tangle.PLAIN)],
             [("C", CAND, "U")],
             recolor=[("C", supa)])

    # operand-inclusion stages: an operand member is marked iff it is
    # also a candidate member
    for scolor, reg, tag, nxt_color in ((supa, first, "a", supb),
                                        (supb, second, "b", acc)):
        for scol, _mcol, stag in scans:
            cells, edges = _pad(
                [("C", scolor), ("S", None), ("X", scol)],
                [("C", reg, "S"), ("X", tangle.ELEM, "S")])
            ctx.emit("union-check:%s:sup-%s-reject%s" % (entry, tag, stag),
                     cells, edges, recolor=[("C", unmark_j)])
        ctx.emit("union-check:%s:sup-%s-pass" % (entry, tag),
                 [("C", scolor), ("S", None)],
                 [("C", reg, "S")],
                 recolor=[("C", nxt_color)])

    # accept: deliver the candidate, unmark its members, restore
    ctx.emit("union-check:%s:accept" % entry,
             [("C", acc), ("U", tangle.PLAIN)],
             [("C", CAND, "U")],
             add=[("C", dst, "U")],
             delete=[("C", CAND, "U")],
             recolor=[("C", unmark_a)])
    for scol, mcol, stag in scans:
        cells, edges = _pad(
            [("C", unmark_a), ("U", tangle.PLAIN), ("X", mcol)],
            [("C", dst, "U"), ("X", tangle.ELEM, "U")])
        ctx.emit("union-check:%s:accept-unmark%s" % (entry, stag),
                 cells, edges, recolor=[("X", scol)])
    ctx.emit("union-check:%s:accept-unmark-exit" % entry,
             [("C", unmark_a), ("U", tangle.PLAIN)],
             [("C", dst, "U")],
             recolor=[("C", restore)])

    # reject: unmark this candidate's members, flag it, resume the loop
    for scol, mcol, stag in scans:
        cells, edges = _pad(
            [("C", unmark_j), ("U", tangle.PLAIN), ("X", mcol)],
            [("C", CAND, "U"), ("X", tangle.ELEM, "U")])
        ctx.emit("union-check:%s:reject-unmark%s" % (entry, stag),
                 cells, edges, recolor=[("X", scol)])
    ctx.emit("union-check:%s:reject-unmark-exit" % entry,
             [("C", unmark_j), ("U", tangle.PLAIN)],
             [("C", CAND, "U")],
             recolor=[("C", rej_done)])
    if neg:
        ctx.emit("union-check:%s:reject-flag" % entry,
                 [("C", rej_done), ("U", tangle.PLAIN),
                  ("M", None)],
                 [("C", CAND, "U"), ("C", SEED, "M")],
                 add=[("U", REJ, "M")],
                 delete=[("C", CAND, "U")],
                 recolor=[("C", pick)])
    else:
        ctx.emit("union-check:%s:reject-flag" % entry,
                 [("C", rej_done), ("U", tangle.PLAIN)],
                 [("C", CAND, "U")],
                 delete=[("C", CAND, "U")],
                 recolor=[("U", UREJ), ("C", pick)])

    # all candidates rejected: drop the reject marks first, so the
    # build phase sees every operand member as plain, then build
    _emit_union_restore(ctx, entry, prebuild, build, "prebuild-restore")
    ctx.emit("union-build:%s:fresh" % entry,
             [("C", build)], [],
             creates=[("W", UBUILD, tangle.SET)],
             add=[("C", BW, "W")],
             recolor=[("C", cpa)])
    for ccolor, after, reg, tag in ((cpa, cpb, first, "a"),
                                    (cpb, unmark_b, second, "b")):
        cells, edges = _pad(
            [("C", ccolor), ("S", None), ("W", UBUILD),
             ("X", tangle.PLAIN)],
            [("C", reg, "S"), ("C", BW, "W"), ("X", tangle.ELEM, "S")])
        ctx.emit("union-build:%s:copy-%s" % (entry, tag),
                 cells, edges,
                 add=[("X", tangle.ELEM, "W")],
                 recolor=[("X", MKB)])
        ctx.emit("union-build:%s:copy-%s-exit" % (entry, tag),
                 [("C", ccolor), ("S", None), ("W", UBUILD)],
                 [("C", reg, "S"), ("C", BW, "W")],
                 recolor=[("C", after)])
    cells, edges = _pad(
        [("C", unmark_b), ("W", UBUILD), ("X", MKB)],
        [("C", BW, "W"), ("X", tangle.ELEM, "W")])
    ctx.emit("union-build:%s:unmark" % entry, cells, edges,
             recolor=[("X", tangle.PLAIN)])
    ctx.emit("union-build:%s:unmark-exit" % entry,
             [("C", unmark_b), ("W", UBUILD)],
             [("C", BW, "W")],
             add=[("C", dst, "W")],
             delete=[("C", BW, "W")],
             recolor=[("W", tangle.PLAIN), ("C", nxt)])

    # accept path: restore rejected candidates, release the witness
    _emit_union_restore(ctx, entry, restore, nxt, "restore")


def _emit_union_restore(ctx, entry, stage, after, label):
    """Loop stripping every reject mark, then release the witness and
    step to `after`."""
    if ctx.negative_edges:
        cells, edges = _pad(
            [("C", stage), ("M", None), ("U", None)],
            [("C", SEED, "M"), ("U", REJ, "M")])
        ctx.emit("union-check:%s:%s" % (entry, label), cells, edges,
                 delete=[("U", REJ, "M")])
    else:
        cells, edges = _pad(
            [("C", stage), ("M", None), ("U", UREJ)],
            [("C", SEED, "M"), ("M", tangle.ELEM, "U")])
        ctx.emit("union-check:%s:%s" % (entry, label), cells, edges,
                 recolor=[("U", tangle.PLAIN)])
    ctx.emit("union-check:%s:%s-exit" % (entry, label),
             [("C", stage), ("M", None)], [("C", SEED, "M")],
             delete=[("C", SEED, "M")], recolor=[("C", after)])


# -- program lowering ------------------------------------------------------

_TRUE = Formula.true()


class _Lowerer:
    """Lowers a program body to two stage lists: `steps` (eval) and
    `commits`.  A stage is (phase, path condition, emitter, args), and
    emitter(ctx, entry, nxt, *args) emits its rules.  An eval step's
    last argument is the fresh register or bit it writes.

    Operands are labels of edges out of the focus (term): a register, or
    for a leaf term the edge where its value already sits, a critical
    term's own label, an atom's #atom_<name> or #empty.  `written` holds
    the critical terms some commit writes.  Reading a leaf there gives
    what a register copy of it would hold:

    - only commits write critical-term edges, and they run after every
      eval stage of the round; nothing writes an atom or #empty edge.
      So an eval stage reads the pre-transition value, and so does a
      commit, unless the term is in `written` (operand copies those);
    - no eval emitter adds or deletes an edge that carries an operand
      label: they add only fresh registers, bits and protocol scratch
      ($sw, $cand, ...), so a label holds one value through the eval
      stages;
    - each such label has exactly one target, as a register does.  Two
      operands that share a label bind one node exactly when two
      register copies would, so the alias variants, and which match of
      a stage is maximal, are those the copies gave.
    """

    def __init__(self, criticals, written):
        self.criticals = set(criticals)
        self.written = set(written)
        self.steps = []
        self.commits = []
        self.nreg = 0
        self.nbit = 0

    def value(self, ctx, phase, emitter, *args):
        """Append an eval stage writing a fresh register; return it."""
        dst = "$r%d" % self.nreg
        self.nreg += 1
        self.steps.append((phase, ctx, emitter, args + (dst,)))
        return dst

    def term(self, t, env, ctx):
        """Lower a term to the label of the edge out of the focus that
        holds its value.  A let variable, a critical term (its own
        label), an atom (tangle.atom_edge) and {} (tangle.EMPTY_EDGE)
        take no stage; the class docstring says why reading them there
        is sound.  A compound term gets the fresh register of the eval
        stage appended for it."""
        if isinstance(t, ast.Name):
            if t.id in env:
                return env[t.id]
            if t.id in self.criticals:
                return t.id
            return tangle.atom_edge(t.id)
        if isinstance(t, ast.EmptySet):
            return tangle.EMPTY_EDGE
        if isinstance(t, ast.Singleton):
            return self.value(ctx, "singleton", compile_singleton,
                              self.term(t.item, env, ctx))
        if isinstance(t, ast.UnionTerm):
            return self.value(ctx, "union-check", compile_union,
                              self.term(t.left, env, ctx),
                              self.term(t.right, env, ctx))
        if isinstance(t, ast.PairTerm):
            return self.value(ctx, "pairing", compile_pairing,
                              self.term(t.first, env, ctx),
                              self.term(t.second, env, ctx))
        if isinstance(t, ast.Apply):
            return self.value(ctx, "eval", compile_apply_read, t.func,
                              tuple(self.term(a, env, ctx) for a in t.args))
        raise CompileError("cannot lower term %r" % (t,))

    def operand(self, t, env, ctx):
        """Lower a commit operand as term does, except that a critical
        term some commit writes is copied into a register, so that no
        commit reads a value another one wrote in the same round."""
        label = self.term(t, env, ctx)
        if label in self.written:
            return self.value(ctx, "eval", compile_copy, label)
        return label

    def cond(self, c, env, ctx):
        """Lower a condition to a formula over bits; bit-producing
        steps run unguarded (their false fallback absorbs operands
        that a false guard left unset).  The right operand of `and` is
        evaluated only where the left one holds, and that of `or` only
        where it fails, as the interpreter short-circuits: the value of
        `false and X` and `true or X` does not depend on X, so a right
        operand skipped there cannot stick the run (jumping code, Aho,
        Lam, Sethi & Ullman, Compilers, 2nd ed., 6.6)."""
        if isinstance(c, (ast.Member, ast.Eq, ast.Ne)):
            left = self.term(c.left, env, ctx)
            right = self.term(c.right, env, ctx)
            bit = self.nbit
            self.nbit += 1
            kind = "member" if isinstance(c, ast.Member) else "eq"
            self.steps.append(("conditional", _TRUE, compile_conditional,
                               (kind, left, right, "$b%d" % bit)))
            f = Formula.of_bit(bit)
            return f.negate() if isinstance(c, ast.Ne) else f
        if isinstance(c, ast.And):
            left = self.cond(c.left, env, ctx)
            return left.conj(self.cond(c.right, env, ctx.conj(left)))
        if isinstance(c, ast.Or):
            left = self.cond(c.left, env, ctx)
            return left.disj(self.cond(c.right, env,
                                       ctx.conj(left.negate())))
        if isinstance(c, ast.Not):
            return self.cond(c.item, env, ctx).negate()
        raise CompileError("cannot lower condition %r" % (c,))

    def stmt(self, s, env, ctx):
        if isinstance(s, ast.Assign):
            if isinstance(s.lhs, ast.Name):
                src = self.operand(s.rhs, env, ctx)
                self.commits.append(("commit", ctx, compile_term_commit,
                                     (s.lhs.id, src)))
            else:
                argregs = tuple(self.operand(a, env, ctx)
                                for a in s.lhs.args)
                src = self.operand(s.rhs, env, ctx)
                self.commits.append(("commit", ctx, compile_apply_write,
                                     (s.lhs.func, argregs, src)))
        elif isinstance(s, ast.If):
            f = self.cond(s.cond, env, ctx)
            self.stmt(s.then, env, ctx.conj(f))
            if s.els is not None:
                self.stmt(s.els, env, ctx.conj(f.negate()))
        elif isinstance(s, ast.Let):
            src = self.term(s.source, env, ctx)
            if s.choice:
                src = self.value(ctx, "choice", compile_choice, src)
            self.stmt(s.body, env | {s.var: src}, ctx)
        elif isinstance(s, ast.Par):
            for item in s.items:
                self.stmt(item, env, ctx)
        else:
            raise CompileError("cannot lower statement %r" % (s,))


def _continues_run(stages, i):
    """Whether stage i is guarded together with stage i-1: both share a
    path condition (same support and rows) that is not trivially true."""
    condition = stages[i][1]
    if i == 0 or condition.is_true():
        return False
    prev = stages[i - 1][1]
    return (prev.support, prev.rows) == (condition.support, condition.rows)


def _emit_stages(ctx, prefix, stages, after, add=()):
    """Emit a chain of stages, the one place colours and guards are set.

    Stage i enters at colour prefix+i and hands over to the next stage,
    the last one to `after`.  Each maximal run of consecutive stages
    whose path conditions are equal and not trivially true runs behind
    one guard stage (compile_lock_wrapping) at the run's first entry,
    carrying that stage's phase: it enters the first stage at entry+".r",
    adding `add`, and, when the condition fails, skips to the first
    stage after the run (or `after`).  Later stages of a run enter at
    their own colour.

    This skips exactly the stages that a guard per stage would.  A guard
    reads only bit edges, and bits are written only by conditional
    stages (dropped only by cleanup), whose condition is _TRUE, so
    they are never guarded and always end a run: no stage of a run
    writes a bit, and the run's condition has the same value at each of
    its stages as at the guard.  When it holds, each per-stage guard
    would have run its stage; when it fails, each would have skipped.

    The guard needs a rule only for the rows that satisfy the condition,
    and its bare-focus skip rule takes every other tick
    (compile_lock_wrapping).
    That needs each bit of the condition set when the guard runs, and it
    is: a path condition is built from the bits of enclosing `if`
    conditions and of the left operands of `and` and `or`, whose
    conditional stages _Lowerer appends to the eval chain before the
    stages of their branches and right operands, and those stages
    always run; the commit chain runs after the whole eval chain.
    """
    for i, (phase, condition, emitter, args) in enumerate(stages):
        entry = "%s%d" % (prefix, i)
        nxt = "%s%d" % (prefix, i + 1) if i + 1 < len(stages) else after
        run = entry
        if not condition.is_true() and not _continues_run(stages, i):
            end = i + 1
            while end < len(stages) and _continues_run(stages, end):
                end += 1
            skip = "%s%d" % (prefix, end) if end < len(stages) else after
            run = entry + ".r"
            compile_lock_wrapping(ctx, entry, run, skip, condition, phase,
                                  add)
        emitter(ctx, run, nxt, *args)


def _cleanup_stages(steps, prefix, again):
    """The cleanup chain's stages, for _emit_stages at `prefix`.

    Every eval step writes one label, its last argument.  The labels are
    grouped by the step's path condition (same support and rows), and
    each group is cut into chunks of at most CLEANUP_CHUNK labels, one
    stage each (compile_cleanup).  The first chunk of a group whose
    condition is not trivially true skips to the next group's first
    stage.  The unconditional group comes last, bits before registers,
    and its last chunk holds registers only, so that compile_cleanup
    can branch there when given `again`.  Leaf terms take no register,
    so that group may have none: its last chunk is then empty, a stage
    that only drops the $go mark, halts or loops, and costs one tick a
    round.
    """
    groups = {}
    for _phase, condition, _emitter, args in steps:
        key = (condition.support, condition.rows)
        groups.setdefault(key, []).append(args[-1])
    plain = groups.pop((_TRUE.support, _TRUE.rows), [])
    bits = [l for l in plain if l.startswith("$b")]
    regs = [l for l in plain if not l.startswith("$b")]

    def cut(labels):
        return [tuple(labels[i:i + CLEANUP_CHUNK])
                for i in range(0, len(labels), CLEANUP_CHUNK)]

    stages = []
    for labels in groups.values():
        chunks = cut(labels)
        skip = "%s%d" % (prefix, len(stages) + len(chunks))
        for i, chunk in enumerate(chunks):
            stages.append(("cleanup", _TRUE, compile_cleanup,
                           (chunk, None if i else skip, None)))
    chunks = (cut(bits + regs[:-CLEANUP_CHUNK])
              + (cut(regs[-CLEANUP_CHUNK:]) or [()]))
    for i, chunk in enumerate(chunks):
        stages.append(("cleanup", _TRUE, compile_cleanup,
                       (chunk, None, again if i == len(chunks) - 1 else None)))
    return stages


class CompilationUnit:
    """A compiled program: its rule set, the focus colours a run starts
    from, halts in and checks committed values at (first_color,
    done_color, idle_colors), and the program, to encode and decode."""

    def __init__(self, program, ruleset, first_color, idle_colors):
        self.program = program
        self.ruleset = ruleset
        self.first_color = first_color
        self.done_color = DONE
        self.idle_colors = idle_colors

    def initial_graph(self, state, universe):
        """Encode a state with the focus already carrying the boot
        color; unmentioned criticals default to the empty set and all
        declared atoms are pre-created."""
        full = interpreter.initial_state(self.program, state, universe)
        locs = {}
        for (fname, _uids), (args, value) in full.locations.items():
            locs[(fname, args)] = value
        return tangle.encode(full.values, locations=locs, universe=universe,
                             criticals_color=BOOT,
                             atoms=self.program.atoms)

    def classify(self, graph):
        """Outcome by the color the focus halted in."""
        color = graph.color_of(graph.active)
        if color == DONE:
            return interpreter.TERMINAL
        if color == CHOICE_ERROR:
            return interpreter.EMPTY_CHOICE
        return "stuck:" + color

    def final_state(self, graph, universe):
        values = tangle.decode(graph, universe)
        state = interpreter.State(values)
        for (fname, args), value in tangle.decode_locations(
                graph, universe).items():
            state.write_location(fname, args, value)
        return state


def compile_program(program, negative_edges=False):
    violations = ast.validate(program)
    if violations:
        raise CompileError("; ".join(violations))
    lo = _Lowerer(program.criticals, ast.assigned_criticals(program.body))
    lo.stmt(program.body, {}, _TRUE)
    if not lo.commits:
        raise CompileError("program has no assignment")
    first = "s0" if lo.steps else "m0"
    # an unconditional commit fires in every round, so the round needs no
    # $go mark: cleanup loops back to `first` without asking
    always = any(condition.is_true() for _p, condition, _e, _a in lo.commits)
    cleanup = _cleanup_stages(lo.steps, "k", None if always else first)

    ctx = EmitContext(negative_edges)
    # boot: create the shared true/false markers, then start evaluating
    ctx.emit("boot:start",
             [("C", BOOT)], [],
             creates=[("T", tangle.MARKER, tangle.SCRATCH),
                      ("F", tangle.MARKER, tangle.SCRATCH)],
             add=[("C", tangle.TRUE_EDGE, "T"),
                  ("C", tangle.FALSE_EDGE, "F")],
             recolor=[("C", first)])
    _emit_stages(ctx, "s", lo.steps, "m0")
    # the commit chain applies every enabled commit, and the guard of each
    # enabled run marks the round; cleanup halts after an unmarked one
    _emit_stages(ctx, "m", lo.commits, "k0",
                 () if always else [("C", GO, "F")])
    _emit_stages(ctx, "k", cleanup, first if always else DONE)

    ruleset = RuleSet(ctx.rules)
    problems = validate_ruleset(ruleset)
    if problems:
        raise CompileError("generated rule set is invalid: "
                           + "; ".join(problems[:5]))
    idle = frozenset((BOOT, first, DONE, CHOICE_ERROR))
    return CompilationUnit(program, ruleset, first, idle)
