"""The benchmark's own model of the grammars it sends to `lambekd serve`.

Everything here is independent of the program under test: the builtin
grammars are restated from their documented productions, accepted
strings are derived from those productions, and every rejected string is
confirmed by a small hand-written recognizer before it is used.
"""

import math
import re

# Inline grammars (and builtins, restated) in the wire format: a start
# symbol and [lhs, [symbol, ...]] productions, terminals quoted as 'c'.
BUILTINS = {
    "dyck": ("D", [("D", []), ("D", ["'('", "D", "')'", "D"])]),
    "expr": ("E", [("E", ["A", "E'"]), ("E'", []), ("E'", ["'+'", "A", "E'"]),
                   ("A", ["'n'"]), ("A", ["'('", "E", "')'"])]),
    "expr_lr": ("E", [("E", ["E", "'+'", "A"]), ("E", ["A"]), ("A", ["'n'"]),
                      ("A", ["'('", "E", "')'"])]),
    "expr_plain": ("E", [("E", ["A"]), ("E", ["A", "'+'", "E"]), ("A", ["'n'"]),
                         ("A", ["'('", "E", "')'"])]),
    "ss": ("S", [("S", ["S", "S"]), ("S", ["'a'"])]),
    "anbn": ("S", [("S", []), ("S", ["'a'", "S", "'b'"])]),
    "arith": ("E", [("E", ["E", "'+'", "T"]), ("E", ["E", "'-'", "T"]), ("E", ["T"]),
                    ("T", ["T", "'*'", "F"]), ("T", ["T", "'/'", "F"]), ("T", ["F"]),
                    ("F", ["'n'"]), ("F", ["'-'", "F"]), ("F", ["'('", "E", "')'"])]),
    "stmt": ("S", [("S", ["'v'", "'='", "E", "';'"]),
                   ("S", ["'i'", "'('", "E", "')'", "S", "'e'", "S"]),
                   ("S", ["'w'", "'('", "E", "')'", "S"]),
                   ("S", ["'{'", "L", "'}'"]), ("L", []), ("L", ["S", "L"]),
                   ("E", ["E", "'+'", "T"]), ("E", ["T"]), ("T", ["T", "'*'", "F"]),
                   ("T", ["F"]), ("F", ["'v'"]), ("F", ["'n'"]),
                   ("F", ["'('", "E", "')'"])]),
}

# The language each builtin recognizes, by recognizer name.
BUILTIN_LANG = {"dyck": "dyck", "expr": "expr", "expr_lr": "expr",
                "expr_plain": "expr", "ss": "ss", "anbn": "anbn",
                "arith": "arith", "stmt": "stmt"}

# S -> X | Y, X -> a S | b, Y -> a S | b: ambiguous (so no LL(1)/SLR
# table), right-recursive, language a*b.
AMBIG_RIGHT = ("S", [("S", ["X"]), ("S", ["Y"]), ("X", ["'a'", "S"]),
                     ("X", ["'b'"]), ("Y", ["'a'", "S"]), ("Y", ["'b'"])])


def is_terminal(sym):
    return len(sym) == 3 and sym[0] == "'" and sym[2] == "'"


def inline_json(start, prods):
    """The wire rendering of an inline grammar object."""
    body = ",".join(
        '["%s",[%s]]' % (lhs, ",".join('"%s"' % s for s in rhs)) for lhs, rhs in prods)
    return '{"start":"%s","prods":[%s]}' % (start, body)


class Grammar:
    """A grammar with a random-derivation sampler and a recognizer."""

    def __init__(self, start, prods, lang):
        self.start = start
        self.lang = lang
        self.by_lhs = {}
        for lhs, rhs in prods:
            self.by_lhs.setdefault(lhs, []).append(rhs)
        self.alphabet = sorted({s[1] for _, rhs in prods for s in rhs if is_terminal(s)})
        # Minimal yield length per nonterminal, and for each the production
        # that last lowered it: following those pointers always terminates.
        inf = 1 << 30
        self.minlen = {n: inf for n in self.by_lhs}
        self.minprod = {}
        changed = True
        while changed:
            changed = False
            for lhs, rhs in prods:
                v = self.cost(rhs)
                if v < self.minlen[lhs]:
                    self.minlen[lhs] = v
                    self.minprod[lhs] = rhs
                    changed = True
        # growable: can derive strings of unbounded length
        self.growable = set()
        changed = True
        while changed:
            changed = False
            for lhs, rhss in self.by_lhs.items():
                if lhs not in self.growable and (
                        len({self.cost(r) for r in rhss}) > 1
                        or any(s in self.growable or s == lhs for r in rhss for s in r)):
                    self.growable.add(lhs)
                    changed = True
        self.growing = {lhs: [r for r in rhss if self.cost(r) > self.minlen[lhs]
                              or any(s in self.growable for s in r)]
                        for lhs, rhss in self.by_lhs.items()}

    def cost(self, rhs):
        return sum(1 if is_terminal(s) else self.minlen[s] for s in rhs)

    def derive_once(self, rng, target):
        # Below the target length a nonterminal picks any production, except
        # that the last growable symbol left on the stack must grow.
        out = []
        stack = [self.start]
        rest = self.minlen[self.start]
        live = 1 if self.start in self.growable else 0
        while stack:
            sym = stack.pop()
            if is_terminal(sym):
                out.append(sym[1])
                rest -= 1
                continue
            rest -= self.minlen[sym]
            if sym in self.growable:
                live -= 1
            if len(out) + rest < target:
                rhss = self.by_lhs[sym]
                rhs = rng.choice(self.growing[sym] if live == 0 and sym in self.growable else rhss)
            else:
                rhs = self.minprod[sym]
            rest += self.cost(rhs)
            live += sum(1 for s in rhs if s in self.growable)
            stack.extend(reversed(rhs))
        return "".join(out)

    def derive(self, rng, lo, hi):
        """A string of the language with length in [lo, hi], by derivation."""
        for _ in range(400):
            s = self.derive_once(rng, rng.randint(lo, hi))
            if lo <= len(s) <= hi:
                return s
        raise RuntimeError("no derivation of length %d..%d from %s" % (lo, hi, self.start))

    def accepts(self, s):
        return RECOGNIZERS[self.lang](s)

    def mutate(self, rng, s):
        """A single-character edit of [s] that the recognizer rejects."""
        for attempt in range(200):
            pool = self.alphabet if attempt % 4 else self.alphabet + ["x"]
            c = rng.choice(pool)
            i = rng.randrange(len(s) + 1)
            op = rng.randrange(3)
            if op == 0:
                t = s[:i] + c + s[i:]
            elif op == 1 and i < len(s):
                t = s[:i] + s[i + 1:]
            else:
                t = s[:i] + c + s[i + 1:]
            if t and t != s and not self.accepts(t):
                return t
        raise RuntimeError("no rejected mutation of %r" % s)


def builtin(name):
    start, prods = BUILTINS[name]
    return Grammar(start, prods, BUILTIN_LANG[name])


def renamed(base, chars):
    """[base] (a builtin name) with its terminals renamed to [chars]: the
    wire rendering of a grammar with a fresh structural digest, and the
    translation that carries the base language onto its language."""
    start, prods = BUILTINS[base]
    old = "".join(builtin(base).alphabet)
    m = dict(zip(old, chars))
    new_prods = [(lhs, ["'%s'" % m[s[1]] if is_terminal(s) else s for s in rhs])
                 for lhs, rhs in prods]
    return inline_json(start, new_prods), str.maketrans(old, chars)


# --- recognizers ------------------------------------------------------------

def rec_dyck(s):
    d = 0
    for c in s:
        if c == "(":
            d += 1
        elif c == ")":
            d -= 1
            if d < 0:
                return False
        else:
            return False
    return d == 0


def _infix(s, operands, prefix_ops, binary_ops):
    """Operand/operator alternation with balanced parentheses; prefix
    operators may precede an operand.  Precedence does not change the
    language, so one state machine serves every expression grammar."""
    need = True
    depth = 0
    for c in s:
        if need:
            if c in operands:
                need = False
            elif c == "(":
                depth += 1
            elif c not in prefix_ops:
                return False
        else:
            if c in binary_ops:
                need = True
            elif c == ")" and depth > 0:
                depth -= 1
            else:
                return False
    return not need and depth == 0


def rec_expr(s):
    return _infix(s, "n", "", "+")


def rec_arith(s):
    return _infix(s, "n", "-", "+-*/")


def rec_stmt(s):
    n = len(s)

    def expr(i):
        # E := T ('+' T)*, T := F ('*' F)*, F := v | n | ( E )
        while True:
            if i < n and s[i] in "vn":
                i += 1
            elif i < n and s[i] == "(":
                i = expr(i + 1)
                if i < 0 or i >= n or s[i] != ")":
                    return -1
                i += 1
            else:
                return -1
            if i < n and s[i] in "+*":
                i += 1
            else:
                return i

    def stmt(i):
        if i >= n:
            return -1
        c = s[i]
        if c == "v":
            if i + 1 >= n or s[i + 1] != "=":
                return -1
            i = expr(i + 2)
            return i + 1 if 0 <= i < n and s[i] == ";" else -1
        if c in "iw":
            if i + 1 >= n or s[i + 1] != "(":
                return -1
            i = expr(i + 2)
            if i < 0 or i >= n or s[i] != ")":
                return -1
            i = stmt(i + 1)
            if c == "w" or i < 0:
                return i
            if i >= n or s[i] != "e":
                return -1
            return stmt(i + 1)
        if c == "{":
            i += 1
            while i < n and s[i] != "}":
                i = stmt(i)
                if i < 0:
                    return -1
            return i + 1 if i < n else -1
        return -1

    return stmt(0) == n


def rec_ss(s):
    return len(s) > 0 and s.count("a") == len(s)


def rec_anbn(s):
    k = len(s) // 2
    return len(s) % 2 == 0 and s == "a" * k + "b" * k


def rec_ambig_right(s):
    return s.endswith("b") and s.count("a") == len(s) - 1


RECOGNIZERS = {"dyck": rec_dyck, "expr": rec_expr, "arith": rec_arith,
               "stmt": rec_stmt, "ss": rec_ss, "anbn": rec_anbn,
               "ambig_right": rec_ambig_right}


# --- closed forms for counts and weights -------------------------------------

MAX_INT = (1 << 62) - 1  # OCaml's max_int: Forest.count saturates here


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def ss_count(n):
    """Parse count of a^n under S -> S S | a, with the service's saturation."""
    c = catalan(n - 1)
    return (MAX_INT, True) if c >= MAX_INT else (c, False)


def log_catalan(m):
    return math.lgamma(2 * m + 1) - math.lgamma(m + 1) - math.lgamma(m + 2)


def ss_log_mass(n):
    """log of Catalan(n-1) * 0.4^(n-1) * 0.6^n (default ss weights)."""
    return log_catalan(n - 1) + (n - 1) * math.log(0.4) + n * math.log(0.6)


def ss_top_logp(n):
    # every tree of a^n has n-1 binary nodes and n leaves
    return (n - 1) * math.log(0.4) + n * math.log(0.6)


def expr_plain_logp(s):
    """log-probability of the unique expr_plain derivation of [s] under
    the default weights (E -> A 0.7 | A + E 0.3, A -> n 0.8 | ( E ) 0.2):
    one E-chain per parenthesis group plus the top level."""
    n = s.count("n")
    p = s.count("(")
    return (n - 1) * math.log(0.3) + (1 + p) * math.log(0.7) + n * math.log(0.8) + p * math.log(0.2)


def dyck_logp(s):
    """Unique dyck derivation under D -> eps 0.6 | ( D ) D 0.4."""
    p = s.count("(")
    return p * math.log(0.4) + (p + 1) * math.log(0.6)


TREE_TERMINAL = re.compile(r"'(.)'")


def tree_yield(tree):
    """The string a rendered parse tree derives: its quoted terminals in order."""
    return "".join(TREE_TERMINAL.findall(tree))
