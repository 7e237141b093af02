"""The four traffic mixes, generated from a seed, with their oracles.

A workload yields a warm-up pass and then rounds.  Every round of a
workload holds the same operations in the same proportions; only the
inputs differ, so a run of any length attempts whole rounds.  Each
operation is a request line plus an expectation that `check` compares
the response against.  The expectations come from `grammars`, never from
the service: the fields `engine`, `artifact`, `result` and `ns` are not
looked at.  PEAK_ROUNDS is the number of rounds after which the server's
peak RSS is read: a fixed amount of work, reached well within a run.
"""

import math
import random

import grammars as G

# Expectations (the first element names the kind):
#   ("member", id, accept)
#   ("parse", id, input, accept)
#   ("count", id, count, saturated)
#   ("kbest", id, input, parses, top_logp)
#   ("mass", id, log_mass)
#   ("sopen", id, sid) / ("sclose", id, sid)
#   ("sstate", id, len, accept)


def request(rid, grammar, inp, query="member", extra=""):
    return '{"id":"%s","grammar":%s,"input":"%s","query":"%s"%s}' % (
        rid, grammar, inp, query, extra)


def name(g):
    return '"%s"' % g


class Ids:
    def __init__(self, prefix):
        self.prefix = prefix
        self.n = 0

    def __call__(self):
        self.n += 1
        return "%s%d" % (self.prefix, self.n)


def bank(rng, g, lo, hi, size):
    """[size] derived strings whose target lengths step evenly through
    [lo, hi], so a bank's length mix does not depend on the seed."""
    span = hi - lo - 1
    return [g.derive(rng, lo + i * span // size, lo + i * span // size + 2)
            for i in range(size)]


# Membership-preserving compositions of two accepted strings.
def compose(lang, rng, a, b):
    if lang == "dyck":
        return a + b
    if lang == "expr":
        return a + "+" + b
    if lang == "arith":
        return a + rng.choice("+-*/") + b
    if lang == "stmt":
        return "{" + a + b + "}"
    raise ValueError(lang)


class WarmShort:
    """Short stateless requests over all eight builtins."""

    ROUND = 2000
    PEAK_ROUNDS = 20
    REPEATS = 400  # exact repeats of a line earlier in the round
    MIX = (("member", 1440), ("parse", 120), ("count", 60), ("kbest", 40))
    COMPOSED = ("dyck", "expr", "expr_lr", "expr_plain", "arith", "stmt")
    PARSED = COMPOSED + ("anbn",)

    def __init__(self, seed):
        rng = random.Random("warm_short/%d" % seed)
        self.seed = seed
        self.g = {n: G.builtin(n) for n in G.BUILTINS}
        self.banks = {n: bank(rng, self.g[n], 3, 30, 160) for n in self.COMPOSED}

    def accepted(self, rng, n, hi=64):
        if n == "ss":
            return "a" * rng.randint(8, 64)
        if n == "anbn":
            k = rng.randint(4, 32)
            return "a" * k + "b" * k
        lang = self.g[n].lang
        b = self.banks[n]
        for _ in range(100):
            s = compose(lang, rng, rng.choice(b), rng.choice(b))
            if 8 <= len(s) <= hi:
                return s
        raise RuntimeError("no composite for " + n)

    def member(self, rng, rid, n):
        s = self.accepted(rng, n)
        ok = rng.random() < 0.5
        if not ok:
            s = self.g[n].mutate(rng, s)
        return request(rid, name(n), s), ("member", rid, ok)

    def parse(self, rng, rid, n):
        s = self.accepted(rng, n)
        ok = rng.random() < 0.7
        if not ok:
            s = self.g[n].mutate(rng, s)
        return request(rid, name(n), s, "parse"), ("parse", rid, s, ok)

    def count(self, rng, rid):
        n = rng.choice(("ss", "dyck", "expr_plain", "arith", "anbn"))
        if n == "ss":
            k = rng.randint(4, 10)
            c, sat = G.ss_count(k)
            return request(rid, name(n), "a" * k, "count"), ("count", rid, c, sat)
        s = self.accepted(rng, n)
        ok = rng.random() < 0.7
        if not ok:
            s = self.g[n].mutate(rng, s)
        return request(rid, name(n), s, "count"), ("count", rid, 1 if ok else 0, False)

    def kbest(self, rng, rid):
        n = rng.choice(("ss", "dyck", "expr_plain"))
        k = rng.randint(2, 4)
        extra = ',"kbest":%d' % k
        if n == "ss":
            m = rng.randint(3, 7)
            return (request(rid, name(n), "a" * m, "parse", extra),
                    ("kbest", rid, "a" * m, min(k, G.ss_count(m)[0]), G.ss_top_logp(m)))
        s = self.accepted(rng, n, 24)
        logp = G.dyck_logp(s) if n == "dyck" else G.expr_plain_logp(s)
        return request(rid, name(n), s, "parse", extra), ("kbest", rid, s, 1, logp)

    def warmup(self):
        rng = random.Random("warm_short/warmup/%d" % self.seed)
        ids = Ids("w")
        ops = [self.member(rng, ids(), n) for n in G.BUILTINS]
        ops.append(self.count(rng, ids()))
        ops += [self.kbest(rng, ids()) for _ in range(4)]
        return ops

    def round(self, r):
        rng = random.Random("warm_short/%d/%d" % (self.seed, r))
        ids = Ids("%d." % r)
        kinds = [k for k, c in self.MIX for _ in range(c)]
        rng.shuffle(kinds)
        repeat_at = set(rng.sample(range(64, self.ROUND), self.REPEATS))
        ops, fresh = [], []
        names = list(G.BUILTINS)
        for i in range(self.ROUND):
            rid = ids()
            if i in repeat_at:
                line, exp = rng.choice(fresh[-256:])
                old = exp[1]
                ops.append((line.replace('"id":"%s"' % old, '"id":"%s"' % rid, 1),
                            (exp[0], rid) + exp[2:]))
                continue
            kind = kinds.pop()
            if kind == "member":
                op = self.member(rng, rid, rng.choice(names))
            elif kind == "parse":
                # ss trees come from Earley over an ambiguous grammar: an
                # engine-bound query, left to long_inputs
                op = self.parse(rng, rid, rng.choice(self.PARSED))
            elif kind == "count":
                op = self.count(rng, rid)
            else:
                op = self.kbest(rng, rid)
            ops.append(op)
            fresh.append(op)
        return ops


class LongInputs:
    """Unrepeated long inputs where the engines dominate.  Membership runs
    on 0.5-4 KiB inputs; the forest and weighted queries, whose cost grows
    as a cube (ss) or about a square (expr_plain) of the length, on the
    longest inputs they answer in tens of milliseconds.  Each slot of a
    round draws its size from a narrow band, so rounds cost about the same."""

    PEAK_ROUNDS = 24

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random("long_inputs/%d" % seed)
        self.ambig = G.Grammar(*G.AMBIG_RIGHT, lang="ambig_right")
        self.ambig_json = G.inline_json(*G.AMBIG_RIGHT)
        self.ep = G.builtin("expr_plain")
        # expr_plain inputs are sums of derived pieces: their cost is then
        # a sum over many small shapes and varies little between inputs
        self.pieces = bank(rng, self.ep, 16, 48, 256)
        self.phase = [rng.random() for _ in range(32)]
        self.ss_off = [rng.randrange(256) for _ in range(2)]

    def band(self, r, slot, lo, hi):
        """Round r's size for a slot: a Weyl sequence, so that any run of
        consecutive rounds covers [lo, hi] evenly whatever the seed."""
        u = (self.phase[slot] + r * 0.6180339887498949) % 1.0
        return lo + int(u * (hi - lo + 1))

    def ss_member(self, rid, n, ok, rng):
        s = "a" * n
        if not ok:
            i = rng.randrange(n)
            s = s[:i] + "b" + s[i + 1:]
        return request(rid, name("ss"), s), ("member", rid, ok)

    def ambig_member(self, rng, rid, n, engine):
        s = "a" * (n - 1) + "b"
        ok = rng.random() < 0.75
        if not ok:
            s = self.ambig.mutate(rng, s)
        extra = ',"engine":"%s"' % engine if engine else ""
        return request(rid, self.ambig_json, s, "member", extra), ("member", rid, ok)

    def ep_string(self, rng, n):
        parts = [rng.choice(self.pieces)]
        size = len(parts[0])
        while size < n:
            parts.append(rng.choice(self.pieces))
            size += len(parts[-1]) + 1
        return "+".join(parts)

    def ep_member(self, rng, rid, n, engine):
        s = self.ep_string(rng, n)
        ok = rng.random() < 0.75
        if not ok:
            s = self.ep.mutate(rng, s)
        extra = ',"engine":"%s"' % engine if engine else ""
        return request(rid, name("expr_plain"), s, "member", extra), ("member", rid, ok)

    def ops(self, rng, ids, r, scale):
        slots = iter(range(len(self.phase)))

        def size(lo, hi):
            slot = next(slots)
            return self.band(r, slot, lo, hi) if scale else 3 + slot

        ops = []
        for j in range(2):
            # a distinct a^n per lane for 256 rounds (159 is prime to 256):
            # a repeated ss input would be answered from the result cache
            n = 512 + 256 * j + (self.ss_off[j] + r * 159) % 256 if scale else 8 + j
            ops.append(self.ss_member(ids(), n, True, rng))
        ops.append(self.ss_member(ids(), size(512, 1024), False, rng))
        for lo, hi in ((512, 1024), (1024, 2048), (2048, 3072), (3072, 4096)):
            ops.append(self.ambig_member(rng, ids(), size(lo, hi), "earley"))
        for lo, hi in ((512, 640), (640, 768)):
            ops.append(self.ambig_member(rng, ids(), size(lo, hi), None))
        for lo, hi, engine in ((2048, 3072, None), (3072, 4096, None),
                               (512, 1024, "earley"), (1024, 2048, "earley")):
            ops.append(self.ep_member(rng, ids(), size(lo, hi), engine))
        for lo, hi in ((24, 34), (37, 44)):  # exact, then saturated (Catalan(36) > max_int)
            n = size(lo, hi)
            c, sat = G.ss_count(n)
            rid = ids()
            ops.append((request(rid, name("ss"), "a" * n, "count"), ("count", rid, c, sat)))
        s = self.ep_string(rng, size(192, 256))
        rid = ids()
        ops.append((request(rid, name("expr_plain"), s, "count"), ("count", rid, 1, False)))
        n = size(10, 14)
        k = 2 + r % 4
        rid = ids()
        ops.append((request(rid, name("ss"), "a" * n, "parse", ',"kbest":%d' % k),
                    ("kbest", rid, "a" * n, min(k, G.ss_count(n)[0]), G.ss_top_logp(n))))
        s = self.ep_string(rng, size(192, 256))
        rid = ids()
        ops.append((request(rid, name("expr_plain"), s, "parse", ',"kbest":3'),
                    ("kbest", rid, s, 1, G.expr_plain_logp(s))))
        n = size(32, 64)
        rid = ids()
        ops.append((request(rid, name("ss"), "a" * n, "mass"), ("mass", rid, G.ss_log_mass(n))))
        s = self.ep_string(rng, size(192, 256))
        rid = ids()
        ops.append((request(rid, name("expr_plain"), s, "mass"),
                    ("mass", rid, G.expr_plain_logp(s))))
        return ops

    def warmup(self):
        rng = random.Random("long_inputs/warmup/%d" % self.seed)
        return self.ops(rng, Ids("w"), 0, False)

    def round(self, r):
        rng = random.Random("long_inputs/%d/%d" % (self.seed, r))
        return self.ops(rng, Ids("%d." % r), r, True)


class EditSessions:
    """Incremental sessions that open, append, edit mid-buffer and query,
    then close once their buffer reaches a bounded length.  Sessions are
    stateful and bypass the result cache, so a run cycles through a few
    pre-generated round scripts; only ids and session names change.  The
    op schedule of a session is fixed by its document's length, and each
    grammar's document lengths step evenly through DOC over the scripts,
    so the seed picks the text and the edit sites but not the amount of
    work."""

    GRAMMARS = ("dyck", "expr_plain", "arith", "stmt")
    PEAK_ROUNDS = 48
    PER_GRAMMAR = 2
    SCRIPTS = 8
    DOC = (192, 384)  # the bound on buffer length, before a pending edit
    GOLDEN = 0.6180339887498949

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random("edit_sessions/%d" % seed)
        self.g = {n: G.builtin(n) for n in self.GRAMMARS}
        per = self.SCRIPTS * self.PER_GRAMMAR
        lo, hi = self.DOC
        ladders = {}
        for n in self.GRAMMARS:
            ladders[n] = [lo + i * (hi - 8 - lo) // (per - 1) for i in range(per)]
            rng.shuffle(ladders[n])
        self.scripts = [self.script(rng, [ladders[n].pop() for n in self.sessions()])
                        for _ in range(self.SCRIPTS)]
        self.opens = len(self.GRAMMARS) * self.PER_GRAMMAR

    def sessions(self):
        return [n for n in self.GRAMMARS for _ in range(self.PER_GRAMMAR)]

    def session_ops(self, rng, gname, size):
        """One session's op sequence after its open: (kind, payload, exp)
        with exp = (len, accept).  Queries ask for membership only: Earley
        tree extraction takes time exponential in the nesting depth of some
        buffer shapes, so a parse query could fail to finish."""
        g = self.g[gname]
        doc = g.derive(rng, size, size + 8)
        phase = rng.random()
        buf = ""
        ops = []

        def op(kind, payload):
            ops.append((kind, payload, (len(buf), g.accepts(buf))))

        pos = 0
        k = 0
        while pos < len(doc):
            chunk = doc[pos:pos + 8 + (k * 13) % 33]
            pos += len(chunk)
            buf += chunk
            op("append", '"chunk":"%s"' % chunk)
            if k % 3 == 1:
                # a mid-buffer edit, undone by the session's next op
                at = int((phase + k * self.GOLDEN) % 1.0 * len(buf))
                rem = buf[at:at + 1 + k % 4]
                ins = "".join(rng.choice(g.alphabet) for _ in range(k % 5))
                buf = buf[:at] + ins + buf[at + len(rem):]
                op("edit", '"at":%d,"del":%d,"ins":"%s"' % (at, len(rem), ins))
                buf = buf[:at] + rem + buf[at + len(ins):]
                op("edit", '"at":%d,"del":%d,"ins":"%s"' % (at, len(ins), rem))
            elif k % 3 == 2:
                op("query", '"query":"member"')
            k += 1
        op("query", '"query":"member"')
        return ops

    def script(self, rng, sizes):
        """Interleave the sessions' ops: a list of (session index, kind,
        payload, exp) with opens first and closes last."""
        sess = self.sessions()
        queues = [self.session_ops(rng, n, size) for n, size in zip(sess, sizes)]
        out = [(i, "session_open", '"grammar":"%s"' % n, None) for i, n in enumerate(sess)]
        heads = [0] * len(sess)
        live = list(range(len(sess)))
        while live:
            i = rng.choice(live)
            kind, payload, exp = queues[i][heads[i]]
            out.append((i, kind, payload, exp))
            heads[i] += 1
            if heads[i] == len(queues[i]):
                live.remove(i)
        out += [(i, "session_close", "", None) for i in range(len(sess))]
        return out

    def render(self, script, ids, sid0):
        ops = []
        for i, kind, payload, exp in script:
            rid = ids()
            sid = "s%d" % (sid0 + i)
            if kind == "session_open":
                ops.append(('{"op":"session_open","id":"%s",%s}' % (rid, payload),
                            ("sopen", rid, sid)))
            elif kind == "session_close":
                ops.append(('{"op":"session_close","id":"%s","session":"%s"}' % (rid, sid),
                            ("sclose", rid, sid)))
            else:
                ops.append(('{"op":"%s","id":"%s","session":"%s",%s}' % (kind, rid, sid, payload),
                            ("sstate", rid) + exp))
        return ops

    def warmup(self):
        rng = random.Random("edit_sessions/warmup/%d" % self.seed)
        return self.render(self.script(rng, [8] * self.opens), Ids("w"), 0)

    def round(self, r):
        return self.render(self.scripts[r % self.SCRIPTS], Ids("%d." % r),
                           self.opens * (r + 1))


class GrammarChurn:
    """Short requests over more distinct inline grammars than the artifact
    cache holds: builtins with their terminals renamed, so every grammar
    has its own digest and a language the benchmark knows."""

    ROUND = 500
    PEAK_ROUNDS = 20
    POOL = (("dyck", 32), ("expr_plain", 32), ("arith", 32), ("stmt", 16), ("anbn", 16))
    # no quote or backslash (they would need escapes on the wire), and no
    # 'x', the foreign character mutations may insert
    CHARS = "ABCDEFGHIJKLMNOPQRSTUVWYZabcdefghijklmnopqrstuvwyz0123456789!$%&*+,-./:;<=>?@^_|~()[]{}"

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random("grammar_churn/%d" % seed)
        self.base = {n: G.builtin(n) for n, _ in self.POOL}
        self.banks = {n: bank(rng, self.base[n], 3, 14, 64)
                      for n, _ in self.POOL if n != "anbn"}
        self.pool = []
        seen = set()
        for base, count in self.POOL:
            k = len(self.base[base].alphabet)
            while sum(1 for p in self.pool if p[0] == base) < count:
                chars = "".join(rng.sample(self.CHARS, k))
                if (base, chars) in seen:
                    continue
                seen.add((base, chars))
                self.pool.append((base,) + G.renamed(base, chars))

    def accepted(self, rng, base):
        if base == "anbn":
            k = rng.randint(4, 16)
            return "a" * k + "b" * k
        b = self.banks[base]
        lang = self.base[base].lang
        for _ in range(100):
            s = compose(lang, rng, rng.choice(b), rng.choice(b))
            if 8 <= len(s) <= 32:
                return s
        raise RuntimeError("no composite for " + base)

    def op(self, rng, rid, entry, query):
        """A request on a pool grammar: generated and judged in the base
        language, then carried over by the renaming."""
        base, gjson, fwd = entry
        s = self.accepted(rng, base)
        ok = rng.random() < 0.6
        if not ok:
            s = self.base[base].mutate(rng, s)
        s = s.translate(fwd)
        if query == "parse":
            return request(rid, gjson, s, "parse"), ("parse", rid, s, ok)
        return request(rid, gjson, s), ("member", rid, ok)

    def warmup(self):
        rng = random.Random("grammar_churn/warmup/%d" % self.seed)
        ids = Ids("w")
        return [self.op(rng, ids(), e, "member") for e in self.pool]

    def round(self, r):
        rng = random.Random("grammar_churn/%d/%d" % (self.seed, r))
        ids = Ids("%d." % r)
        queries = ["parse"] * (self.ROUND // 8) + ["member"] * (self.ROUND - self.ROUND // 8)
        rng.shuffle(queries)
        return [self.op(rng, ids(), rng.choice(self.pool), q) for q in queries]


WORKLOADS = {"warm_short": WarmShort, "long_inputs": LongInputs,
             "edit_sessions": EditSessions, "grammar_churn": GrammarChurn}


def check(d, exp):
    """Compare one decoded response with its expectation.  Returns None
    when it matches, "failed" for a service-side failure (overloaded,
    timeout, bad_request), or a message naming the mismatch."""
    kind, rid = exp[0], exp[1]
    if d.get("id") != rid:
        return "response id %r where %r was due" % (d.get("id"), rid)
    if d.get("ok") is not True:
        return "failed"
    v = d.get("verdict")
    if kind == "member":
        want = "accept" if exp[2] else "reject"
        return None if v == want else "%s: %s, expected %s" % (rid, v, want)
    if kind == "parse":
        _, _, inp, ok = exp
        if not ok:
            return None if v == "reject" else "%s: %s, expected reject" % (rid, v)
        if v != "accept" or G.tree_yield(d.get("tree", "")) != inp:
            return "%s: parse tree does not yield the input" % rid
        return None
    if kind == "count":
        _, _, c, sat = exp
        if v != "count" or d.get("count") != float(c) or bool(d.get("saturated")) != sat:
            return "%s: count %r saturated %r, expected %d %r" % (
                rid, d.get("count"), d.get("saturated"), c, sat)
        return None
    if kind == "kbest":
        _, _, inp, n, top = exp
        parses = d.get("parses") or []
        if v != "ranked" or len(parses) != n:
            return "%s: %s with %d parses, expected %d" % (rid, v, len(parses), n)
        logps = [p.get("logp", -math.inf) for p in parses]
        if any(a < b for a, b in zip(logps, logps[1:])):
            return "%s: k-best log-probabilities increase" % rid
        if any(G.tree_yield(p.get("tree", "")) != inp for p in parses):
            return "%s: a k-best tree does not yield the input" % rid
        if not math.isclose(logps[0], top, rel_tol=1e-9, abs_tol=1e-9):
            return "%s: top logp %r, expected %r" % (rid, logps[0], top)
        return None
    if kind == "mass":
        want = exp[2]
        if v != "mass":
            return "%s: %s, expected mass" % (rid, v)
        got = d.get("log_mass")
        if got is None or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            return "%s: log_mass %r, expected %r" % (rid, got, want)
        return None
    if kind == "sopen":
        return None if v == "session_opened" and d.get("session") == exp[2] else \
            "%s: %s %r, expected session %s" % (rid, v, d.get("session"), exp[2])
    if kind == "sclose":
        return None if v == "session_closed" and d.get("session") == exp[2] else \
            "%s: %s, expected close of %s" % (rid, v, exp[2])
    if kind == "sstate":
        _, _, n, ok = exp
        want = "accept" if ok else "reject"
        if v != want or d.get("len") != n:
            return "%s: %s len %r, expected %s len %d" % (rid, v, d.get("len"), want, n)
        return None
    raise ValueError(kind)
