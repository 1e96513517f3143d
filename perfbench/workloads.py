"""Seeded request generators, one per workload.

A workload run is a sequence of rounds; each round is one fresh process that
serves the round's requests with a single closed-loop caller. Every
generator here is a pure function of (seed, round index), so the same seed
gives the same requests. Requests are plain JSON data: the program under
test only ever sees these.

Sizes are drawn on log-spaced ladders with a small seeded jitter rather than
independently: a quadratic builder makes one large request cost as much as
hundreds of small ones, so independent draws would make a run's total work
depend on the seed far more than on the code being measured.
"""

from __future__ import annotations

import math
import random

from trees import spider_edges, trees_with_vertices

CLIENT_BUDGET = 2 * 10**6

WORKLOADS = ("build-large", "three-long-mixed", "oracle-small", "cli")

# Rounds in a run of 20 seconds; a run of S seconds makes S/20 times as many
# (at least one). The count depends on the arguments alone, so two commits
# always serve the same requests. Chosen so a run lasts 25-40 s of wall time
# on two shared vCPUs, where one round of build-large takes about 3.5 s,
# three-long-mixed 10 s, oracle-small 6 s and cli 9 s.
ROUNDS_PER_20S = {"build-large": 7, "three-long-mixed": 3, "oracle-small": 4, "cli": 3}

# build-large: one request per stratum of log-uniform [M_LO, M_HI]. Each
# stratum has one family, the same in every round, taken from FAMILIES in
# turn from the top stratum down, so each family spans the whole range. A
# run's seven rounds then make seven near-equal requests per stratum, and
# with 11 strata the median (rank 39 of 77) and the tail (11th largest) fall
# in the middle of such a group, not on a gap between sizes, where the seed
# and the machine's noise would move them most. Seven rounds fit in a run
# because M_HI is 4000 rather than 5000: the cost grows with m squared.
M_LO, M_HI = 100, 4000
BUILD_STRATA = 11
BUILD_JITTER = 0.03  # in strata; +-0.03 of a stratum is +-1% in m
FAMILIES = ("doubling", "three_long", "short")

# three-long-mixed: every long-leg pair with l1 >= l2 >= 3, l1 + l2 + 1 <= 41,
# each PAIR_COPIES times with different short parts. The first copy of a pair
# misses the path cache and the others hit it. With two copies the median
# latency would sit exactly on the gap between misses and hits.
PAIR_MAX_N = 41
PAIR_COPIES = 3

# oracle-small.
ORACLE_MIN_EDGES, ORACLE_MAX_EDGES = 7, 11
COUNTS_PER_ROUND = 12
ALPHA_PATH_NS = range(5, 13)

# cli.
CLI_M_LO, CLI_M_HI = 8, 300
CLI_STRATA = 4
CLI_INVALID_SHARE = 0.15
DEEP_PATH_N = (2000, 5000)


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def ladder(lo: int, hi: int, strata: int, rng: random.Random, jitter: float) -> list[int]:
    """One size per stratum of log-uniform [lo, hi], near the stratum middle."""
    span = math.log(hi / lo)
    return [
        round(lo * math.exp(span * (i + 0.5 + rng.uniform(-jitter, jitter)) / strata))
        for i in range(strata)
    ]


# ---------------------------------------------------------------------------
# Spider shapes. Each returns a leg list whose sum is exactly m.
# ---------------------------------------------------------------------------


def doubling_ok(legs: list[int]) -> bool:
    """The doubling growth condition, restated from the paper's Theorem 3."""
    ls = sorted(legs)
    if ls[0] < 1:
        return False
    if len(ls) >= 2 and ls[1] < 2 * ls[0] + (4 if ls[1] % 4 == 1 else 2):
        return False
    return all(ls[i] >= 2 * ls[i - 1] + 2 for i in range(2, len(ls)))


def doubling_legs(m: int, rng: random.Random) -> list[int]:
    """Four legs (three when m is small), each at least double the one
    before; the first is 2.5-3.5% of m and the last takes the rest.

    Legs proportional to m keep the center's label at the last attachment
    near m/8, so the path recursion stays shallow and its memo small. Tiny
    first legs would make both depend on the seed by an order of magnitude;
    the cli workload covers the deep-recursion case on its own.
    """
    for s in (4, 3):
        for _ in range(20):
            legs = [max(1, round(m * rng.uniform(0.025, 0.035)))]
            while len(legs) < s - 1:
                prev = legs[-1]
                nxt = 2 * prev + 2 + round(prev * rng.uniform(0.1, 0.3))
                if len(legs) == 1 and nxt % 4 == 1:
                    nxt += 2
                legs.append(nxt)
            legs.append(m - sum(legs))
            if doubling_ok(legs):
                rng.shuffle(legs)
                return legs
    raise ValueError(f"no doubling spider with {m} edges")


def short_shape(m: int, rng: random.Random) -> tuple[int, int, int]:
    """(ell, s, t): one long leg, s legs of length 2, t of length 1.

    The long leg is 45-55% of m and the legs of length 2 carry 70-80% of
    the rest: the builder's cost grows with the number of short legs, so
    wider ranges would make a run's time depend on the seed.
    """
    ell = max(1, round(m * rng.uniform(0.45, 0.55)))
    rest = m - ell
    s = round(rest / 2 * rng.uniform(0.7, 0.8))
    return ell, s, rest - 2 * s


def three_long_legs(m: int, rng: random.Random) -> list[int]:
    """Three legs of length >= 3 plus up to six legs of length 1 or 2.

    The shortest long leg is 10-15% of the long legs' total and the
    second-longest 27-33% of the rest, so the longest is about twice it.
    Near-equal long legs, where the path provider searches, are the subject
    of the three-long-mixed workload; here wider ranges would make a run's
    time depend on the seed.
    """
    short = [rng.randint(1, 2) for _ in range(rng.randint(0, 6))]
    while m - sum(short) < 9:
        short.pop()
    long_total = m - sum(short)
    l3 = min(max(3, round(long_total * rng.uniform(0.1, 0.15))), long_total // 3)
    rest = long_total - l3
    l2 = min(max(l3, round(rest * rng.uniform(0.27, 0.33))), rest // 2)
    legs = [rest - l2, l2, l3] + short
    rng.shuffle(legs)
    return legs


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def build_large(seed: int, round_index: int) -> list[dict]:
    rng = round_rng("build-large", seed, round_index)
    reqs = []
    for i, m in enumerate(ladder(M_LO, M_HI, BUILD_STRATA, rng, BUILD_JITTER)):
        family = FAMILIES[(BUILD_STRATA - 1 - i) % len(FAMILIES)]
        if family == "doubling":
            reqs.append({"op": "doubling", "legs": doubling_legs(m, rng)})
        elif family == "short":
            ell, s, t = short_shape(m, rng)
            reqs.append({"op": "short", "ell": ell, "s": s, "t": t})
        else:
            reqs.append({"op": "three_long", "legs": three_long_legs(m, rng)})
    # The order does not depend on the seed: every put rewrites the whole
    # cache file, so a request's latency depends on how much the requests
    # before it have cached.
    random.Random(f"build-large-order:{round_index}").shuffle(reqs)
    return reqs


def three_long_mixed(seed: int, round_index: int) -> list[dict]:
    rng = round_rng("three-long-mixed", seed, round_index)
    reqs = []
    for l2 in range(3, PAIR_MAX_N):
        for l1 in range(l2, PAIR_MAX_N - l2):
            for _ in range(PAIR_COPIES):
                legs = [l1, l2]
                if rng.random() < 0.5:
                    legs.append(rng.randint(3, l2))
                legs += [rng.randint(1, 2) for _ in range(rng.randint(0, 4))]
                rng.shuffle(legs)
                reqs.append({"op": "three_long", "legs": legs})
    rng.shuffle(reqs)
    return reqs


def leg_multisets(m: int) -> list[list[int]]:
    """Every partition of m into at least three parts, largest part first."""
    out = []

    def parts(remaining: int, max_part: int, acc: list[int]):
        if remaining == 0:
            if len(acc) >= 3:
                out.append(list(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            parts(remaining - p, p, acc)
            acc.pop()

    parts(m, m, [])
    return out


def builders_for(legs: list[int]) -> list[str]:
    """Every construction whose hypothesis the leg multiset meets."""
    long_count = sum(1 for x in legs if x >= 3)
    out = []
    if doubling_ok(legs):
        out.append("doubling")
    if long_count <= 3:
        out.append("three_long")
    if long_count <= 1:
        out.append("short")
    return out


def oracle_small(seed: int, round_index: int) -> list[dict]:
    rng = round_rng("oracle-small", seed, round_index)
    reqs = []
    for m in range(ORACLE_MIN_EDGES, ORACLE_MAX_EDGES + 1):
        for legs in leg_multisets(m):
            n, edges = spider_edges(legs)
            reqs.append({"op": "find", "n": n, "edges": edges, "legs": legs})
            for builder in builders_for(legs):
                reqs.append({"op": "recheck", "builder": builder, "legs": legs})
    pool = trees_with_vertices(8) + trees_with_vertices(9)
    for n, edges in rng.sample(pool, COUNTS_PER_ROUND):
        reqs.append({"op": "count", "n": n, "edges": edges})
    for n in ALPHA_PATH_NS:
        reqs.append({"op": "alpha_path", "n": n, "p": rng.randrange(n)})
    rng.shuffle(reqs)
    return reqs


def cli_round(seed: int, round_index: int) -> list[dict]:
    """CLI requests: {"argv", "expect", "check", "edges", "files"}.

    `files` maps a file name in the round directory to the tree document the
    benchmark writes there before the round starts.
    """
    rng = round_rng("cli", seed, round_index)
    common = ["--budget", str(CLIENT_BUDGET), "--cache", "cache/paths.json"]
    reqs = []

    def add(argv, check, edges, expect=0, files=None):
        reqs.append({"argv": argv + common, "expect": expect, "check": check,
                     "edges": edges, "files": files or {}})

    sizes = ladder(CLI_M_LO, CLI_M_HI, CLI_STRATA, rng, BUILD_JITTER)
    for m in sizes:
        legs = doubling_legs(max(m, 15), rng)
        add(["spider", "doubling", "--legs", _csv(legs)],
            {"kind": "spider", "legs": legs}, sum(legs))
        ell, s, t = short_shape(m, rng)
        add(["spider", "short", "--long", str(ell), "--two", str(s), "--one", str(t)],
            {"kind": "spider", "legs": [ell] + [2] * s + [1] * t}, ell + 2 * s + t)
        legs = three_long_legs(max(m, 12), rng)
        add(["spider", "three-long", "--legs", _csv(legs)],
            {"kind": "spider", "legs": legs}, sum(legs))
        n = max(m, 3)
        p = rng.randrange(n)
        add(["path", "graceful", "--n", str(n), "--position", str(p)],
            {"kind": "path", "n": n, "zero_at": p}, n - 1)
        # Half the time the same (n, position) again: whichever of the two
        # runs second reads what the first wrote to the cache file.
        if rng.random() >= 0.5 or not 0 < p < n - 1:
            n = rng.randint(7, 41)
            p = rng.randrange(1, n - 1)
        add(["path", "alpha", "--n", str(n), "--position", str(p)],
            {"kind": "path", "n": n, "zero_at": p, "alpha": True}, n - 1)
        n = max(m, 6)
        label = _end_label(n, rng)
        add(["path", "alpha", "--n", str(n), "--end-label", str(label)],
            {"kind": "path", "n": n, "end_label": label, "alpha": True}, n - 1)
    # A long path with endpoint label 1: the path recursion goes about n/2
    # frames deep, past the interpreter's limit for every n here today.
    n = round(DEEP_PATH_N[0] * math.exp(rng.uniform(0, math.log(DEEP_PATH_N[1] / DEEP_PATH_N[0]))))
    add(["path", "alpha", "--n", str(n), "--end-label", "1"],
        {"kind": "path", "n": n, "end_label": 1, "alpha": True}, n - 1)
    n = rng.randint(4, 60)
    add(["path", "zigzag", "--n", str(n)],
        {"kind": "path", "n": n, "zero_at": 0, "alpha": True}, n - 1)

    # Document-driven subcommands read inputs the benchmark writes. Their
    # sizes come from the ladder too, so each round has the same edge total.
    n = sizes[2]
    labels = zigzag(n)
    u = rng.choice([v for v in range(n) if labels[v] <= n // 8])
    k = _attachable_count(labels[u], rng)
    add(["attach", "--graph", "host.json", "--vertex", str(u), "--path-len", str(k)],
        {"kind": "tree", "n": n + k}, n + k - 1, files={"host.json": path_doc(n, labels)})
    gn, hn = sizes[2], sizes[1]
    add(["amalgamate", "--alpha", "g.json", "--u", "0", "--graceful", "h.json", "--v", "0"],
        {"kind": "tree", "n": gn + hn - 1}, gn + hn - 2,
        files={"g.json": path_doc(gn, zigzag(gn)), "h.json": star_doc(hn)})
    n, edges = rng.choice(trees_with_vertices(8))
    add(["oracle", "--graph", "count.json", "--count"],
        {"kind": "count", "n": n, "edges": edges}, n - 1,
        files={"count.json": {"n": n, "edges": edges}})
    n = rng.randint(6, 11)
    p = rng.randrange(n)
    add(["oracle", "--graph", "fix.json", "--fix", f"{p}=0", "--alpha"],
        {"kind": "oracle_path", "n": n, "zero_at": p}, n - 1,
        files={"fix.json": {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}})
    n = sizes[3]
    add(["verify", "--graph", "verify.json"], {"kind": "verify"}, n - 1,
        files={"verify.json": path_doc(n, zigzag(n))})
    n = sizes[3]
    body = path_doc(n, zigzag(n))
    add(["export", "--graph", "export.json"], {"kind": "export", "doc": body}, n - 1,
        files={"export.json": body})

    # Invalid requests; every one must exit 2 with a validation error.
    n_invalid = max(1, round(len(reqs) * CLI_INVALID_SHARE / (1 - CLI_INVALID_SHARE)))
    for i in range(n_invalid):
        kind = i % 4
        if kind == 0:
            a = rng.randint(2, 5)
            legs = [a, a + rng.randint(0, a), rng.randint(3 * a, 6 * a)]
            add(["spider", "doubling", "--legs", _csv(legs)], {"kind": "invalid"},
                sum(legs), expect=2)
        elif kind == 1:
            s = rng.randint(5, 10)
            add(["path", "alpha", "--n", str(4 * s + 1), "--end-label",
                 str(rng.choice([s, 3 * s]))], {"kind": "invalid"}, 4 * s, expect=2)
        elif kind == 2:
            n = sizes[2]
            labels = zigzag(n)
            labels[0], labels[1] = labels[1], labels[0]
            doc = f"bad{i}.json"
            add(["verify", "--graph", doc], {"kind": "invalid"}, n - 1, expect=2,
                files={doc: path_doc(n, labels)})
        else:
            legs = [rng.randint(3, 10) for _ in range(4)]
            add(["spider", "three-long", "--legs", _csv(legs)], {"kind": "invalid"},
                sum(legs), expect=2)
    rng.shuffle(reqs)
    return reqs


def request_edges(req: dict) -> int:
    """Edge count m of the tree a request asks about."""
    if "argv" in req:
        return req["edges"]
    if req["op"] == "short":
        return req["ell"] + 2 * req["s"] + req["t"]
    if "legs" in req:
        return sum(req["legs"])
    return req["n"] - 1


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def _end_label(n: int, rng: random.Random) -> int:
    while True:
        label = rng.randrange(n)
        if n % 4 != 1 or label not in ((n - 1) // 4, 3 * (n - 1) // 4):
            return label


def _attachable_count(f_u: int, rng: random.Random) -> int:
    """A path vertex count k with k != 1 mod 4 and f(u) + k//2 + 1 <= k."""
    while True:
        k = 2 * f_u + 2 + rng.randint(0, 8)
        if k % 4 != 1:
            return k


def zigzag(n: int) -> list[int]:
    """The alternating graceful labeling 0, n-1, 1, n-2, ... of P_n."""
    return [j // 2 if j % 2 == 0 else n - 1 - j // 2 for j in range(n)]


def path_doc(n: int, labels: list[int]) -> dict:
    return {"n": n, "edges": [[i, i + 1] for i in range(n - 1)],
            "labels": {str(v): x for v, x in enumerate(labels)}}


def star_doc(n: int) -> dict:
    """K_{1,n-1} with center 0 labeled 0 and leaves 1..n-1: graceful."""
    return {"n": n, "edges": [[0, v] for v in range(1, n)],
            "labels": {str(v): v for v in range(n)}}


GENERATORS = {
    "build-large": build_large,
    "three-long-mixed": three_long_mixed,
    "oracle-small": oracle_small,
    "cli": cli_round,
}
