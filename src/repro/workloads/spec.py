"""SPEC CPU2000 surrogate programs for Table 3.

The paper measures dynamic block counts of 19 SPEC2000 C/FORTRAN
benchmarks (MinneSPEC inputs) on a fast functional simulator.  SPEC
sources and inputs are not redistributable, so each surrogate below is a
TL program whose *control-flow character* matches the benchmark it stands
for — loop nesting style, branch bias, trip-count distributions, call
density — which is what determines how many blocks hyperblock formation
can remove.  Dynamic scale is reduced ~1000x (improvements are ratios).

Shape notes per benchmark are in each entry's description.
"""

from __future__ import annotations

import random

from repro.workloads.microbench import Workload


def _rng(tag: str) -> random.Random:
    return random.Random(f"spec-{tag}")


SPEC_BENCHMARKS: dict[str, Workload] = {}


def _add(workload: Workload) -> Workload:
    SPEC_BENCHMARKS[workload.name] = workload
    return workload


_rng_all = _rng("shared")
_TABLE = [_rng_all.randint(0, 255) for _ in range(256)]
_BITS = [_rng_all.randint(0, 1) for _ in range(256)]
_SMALL = [_rng_all.randint(0, 15) for _ in range(256)]

_add(
    Workload(
        name="ammp",
        description="molecular dynamics: short neighbor-list while loops "
        "under an outer atom loop; prime head-duplication territory",
        source="""
fn main(atoms, nxt, val) {
  var e = 0;
  for (var a = 0; a < atoms; a = a + 1) {
    var p = (a * 7) % 64 + 1;
    var steps = 0;
    while (steps < (val[p] & 3) + 1) {
      e = e + val[p + steps] - (e >> 6);
      steps = steps + 1;
    }
    if (e > 100000) { e = e - 100000; }
  }
  return e;
}
""",
        args=(320, 1000, 2000),
        preload={2000: _SMALL},
    )
)

_add(
    Workload(
        name="applu",
        description="SSOR solver: regular triply nested for loops, "
        "medium-size arithmetic bodies",
        source="""
fn main(n, u, rsd) {
  for (var k = 0; k < n; k = k + 1) {
    for (var j = 0; j < n; j = j + 1) {
      for (var i = 0; i < n; i = i + 1) {
        var idx = (k * n + j) * n + i;
        rsd[idx & 255] = u[idx & 255] * 2 - rsd[(idx + 1) & 255];
      }
    }
  }
  var s = 0;
  for (var q = 0; q < 64; q = q + 1) { s = s + rsd[q]; }
  return s;
}
""",
        args=(7, 1000, 2000),
        preload={1000: _SMALL, 2000: list(_SMALL)},
    )
)

_add(
    Workload(
        name="apsi",
        description="meso-scale weather: alternating stencil loops and "
        "scalar fixups with conditionals",
        source="""
fn main(n, w, t) {
  var s = 0;
  for (var step = 0; step < 6; step = step + 1) {
    for (var i = 1; i + 1 < n; i = i + 1) {
      t[i] = (w[i - 1] + w[i] * 2 + w[i + 1]) / 4;
    }
    for (var i2 = 1; i2 + 1 < n; i2 = i2 + 1) {
      var v = t[i2];
      if (v < 0) { v = 0; }
      if (v > 64) { v = 64; }
      w[i2] = v;
      s = s + v;
    }
  }
  return s;
}
""",
        args=(48, 1000, 2000),
        preload={1000: _SMALL},
    )
)

_art_rng = _rng("art")
_add(
    Workload(
        name="art",
        description="neural image matcher: long biased scans with "
        "occasional winner updates",
        source="""
fn main(n, f1, w) {
  var best = 0 - 100000;
  var sum = 0;
  for (var pass = 0; pass < 5; pass = pass + 1) {
    for (var i = 0; i < n; i = i + 1) {
      var y = f1[i] * w[(i + pass) & 255];
      sum = sum + y;
      if (y > best) { best = y; }
    }
  }
  return best + (sum & 65535);
}
""",
        args=(200, 1000, 2000),
        preload={1000: _SMALL, 2000: _TABLE},
    )
)

_add(
    Workload(
        name="bzip2",
        description="BWT compressor: histogram + rare-escape scan loops",
        source="""
fn main(n, data, counts) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    var b = data[i] & 31;
    counts[b] = counts[b] + 1;
    if (data[i] > 250) {
      s = s ^ (counts[b] << 2);
    }
    s = s + b;
  }
  var j = 0;
  while (j < 32) {
    s = s + counts[j] * j;
    j = j + 1;
  }
  return s;
}
""",
        args=(700, 1000, 3000),
        preload={1000: (_TABLE * 3)[:768], 3000: [0] * 32},
    )
)

_add(
    Workload(
        name="crafty",
        description="chess: bit-twiddling popcount/scan loops with "
        "unpredictable branches",
        source="""
fn main(n, boards) {
  var score = 0;
  for (var i = 0; i < n; i = i + 1) {
    var b = boards[i & 255];
    var count = 0;
    while (b != 0) {
      count = count + (b & 1);
      b = b >> 1;
    }
    if (count > 4) { score = score + count * 3; }
    else { score = score - 1; }
  }
  return score;
}
""",
        args=(300, 1000),
        preload={1000: _TABLE},
    )
)

_add(
    Workload(
        name="equake",
        description="FEM earthquake: sparse matrix-vector inner while "
        "loops with variable trips",
        source="""
fn main(rows, rowptr, cols, vals, x) {
  var s = 0;
  for (var r = 0; r < rows; r = r + 1) {
    var acc = 0;
    var e = rowptr[r];
    while (e < rowptr[r + 1]) {
      acc = acc + vals[e & 255] * x[cols[e & 255] & 63];
      e = e + 1;
    }
    s = s + acc;
  }
  return s;
}
""",
        args=(120, 1000, 2000, 3000, 4000),
        preload={
            1000: [i * 2 for i in range(130)],
            2000: _TABLE,
            3000: _SMALL,
            4000: _SMALL,
        },
    )
)

_add(
    Workload(
        name="gap",
        description="group-theory interpreter: dispatch if-chains and "
        "helper calls (calls fence off block merging -> low improvement)",
        source="""
fn op_add(a, b) { return a + b; }
fn op_mul(a, b) { return a * b; }
fn op_sub(a, b) { return a - b; }

fn main(n, prog) {
  var acc = 1;
  for (var pc = 0; pc < n; pc = pc + 1) {
    var op = prog[pc] & 3;
    var arg = (prog[pc] >> 2) & 15;
    if (op == 0) { acc = op_add(acc, arg); }
    else { if (op == 1) { acc = op_mul(acc, arg & 3); }
    else { if (op == 2) { acc = op_sub(acc, arg); }
    else { acc = acc ^ arg; } } }
    acc = acc & 65535;
  }
  return acc;
}
""",
        args=(400, 1000),
        preload={1000: (_TABLE * 2)[:512]},
    )
)

_add(
    Workload(
        name="gzip",
        description="LZ77: longest-match inner while loops, biased exits",
        source="""
fn main(tries, a, b) {
  var total = 0;
  for (var t = 0; t < tries; t = t + 1) {
    var i = (t * 5) & 127;
    var len = 0;
    while (len < 16 && a[i + len] == b[(t + len) & 127]) {
      len = len + 1;
    }
    total = total + len;
    if (len > 8) { total = total + 10; }
  }
  return total;
}
""",
        args=(250, 1000, 2000),
        preload={1000: (_BITS * 2)[:300], 2000: (_BITS * 2)[:300]},
    )
)

_add(
    Workload(
        name="mcf",
        description="network simplex: serial pointer chasing with "
        "occasional pivots; little ILP but merges remove block overhead",
        source="""
fn main(steps, nxt, cost) {
  var node = 1;
  var total = 0;
  for (var s = 0; s < steps; s = s + 1) {
    total = total + cost[node];
    if (cost[node] > 200) {
      total = total - (cost[node] >> 1);
    }
    node = nxt[node];
  }
  return total;
}
""",
        args=(600, 1000, 2000),
        preload={
            1000: [(i * 97 + 13) % 256 for i in range(256)],
            2000: _TABLE,
        },
    )
)

_add(
    Workload(
        name="mesa",
        description="3D rasterizer: interpolation loops with span clipping "
        "conditionals",
        source="""
fn main(spans, xs, zs, fb) {
  var drawn = 0;
  for (var s = 0; s < spans; s = s + 1) {
    var x = xs[s & 255] & 63;
    var z = zs[s & 255];
    var len = (xs[s & 255] >> 4) & 7;
    for (var k = 0; k < len; k = k + 1) {
      if (z < fb[(x + k) & 63]) {
        fb[(x + k) & 63] = z;
        drawn = drawn + 1;
      }
      z = z + 1;
    }
  }
  return drawn;
}
""",
        args=(240, 1000, 2000, 3000),
        preload={1000: _TABLE, 2000: _SMALL, 3000: [8] * 64},
    )
)

_add(
    Workload(
        name="mgrid",
        description="multigrid: large straight-line stencil bodies; blocks "
        "already fairly full (the paper reports only ~4-5%)",
        source="""
fn main(n, u, r) {
  var s = 0;
  for (var sweep = 0; sweep < 4; sweep = sweep + 1) {
    for (var i = 2; i + 2 < n; i = i + 1) {
      var a0 = u[i - 2]; var a1 = u[i - 1]; var a2 = u[i];
      var a3 = u[i + 1]; var a4 = u[i + 2];
      var t0 = a0 + a4; var t1 = a1 + a3; var t2 = a2 * 6;
      var t3 = t0 + t1 * 4;
      var t4 = t3 - t2;
      var t5 = t4 / 2 + a2;
      var t6 = t5 - (t5 >> 3);
      var t7 = t6 + (a1 - a3);
      var t8 = t7 ^ (t4 & 15);
      var t9 = t8 + t0 * 2 - t1;
      r[i] = t9 & 1023;
      s = s + r[i];
    }
  }
  return s;
}
""",
        args=(96, 1000, 2000),
        preload={1000: (_SMALL * 2)[:128]},
        unroll_for=4,
    )
)

_parser_rng = _rng("parser")
_PARSER_STREAM = [_parser_rng.randint(1, 60) for _ in range(512)]
for _k in range(0, 512, 40):
    _PARSER_STREAM[_k] = 0

_add(
    Workload(
        name="parser",
        description="link grammar: table scans with rare failure paths",
        source="""
fn main(n, words, dict) {
  var score = 0;
  var fails = 0;
  for (var i = 0; i < n; i = i + 1) {
    var w = words[i & 511];
    if (w == 0) {
      var h = (score + i) * 31;
      h = h - (h / 13) * 13;
      fails = fails + h + 1;
    } else {
      score = score + dict[w & 63];
      if (score > 10000) { score = score - 10000; }
    }
  }
  return score + fails * 7;
}
""",
        args=(512, 1000, 2000),
        preload={1000: _PARSER_STREAM, 2000: _TABLE},
    )
)

_add(
    Workload(
        name="sixtrack",
        description="particle tracking: long dependent arithmetic chains "
        "in a hot loop",
        source="""
fn main(turns, x0, px0) {
  var x = x0;
  var px = px0;
  var lost = 0;
  for (var t = 0; t < turns; t = t + 1) {
    x = x + px / 4;
    px = px - (x * 3) / 8;
    x = x + (px >> 2);
    px = px ^ (x & 7);
    if (x > 4096 || x < 0 - 4096) {
      x = x / 2;
      lost = lost + 1;
    }
  }
  return x + px + lost * 1000;
}
""",
        args=(600, 100, 7),
    )
)

_add(
    Workload(
        name="swim",
        description="shallow water: wide independent grid updates",
        source="""
fn main(n, u, v, p) {
  for (var sweep = 0; sweep < 5; sweep = sweep + 1) {
    for (var i = 1; i + 1 < n; i = i + 1) {
      u[i] = u[i] + (p[i + 1] - p[i - 1]) / 2;
      v[i] = v[i] - (p[i + 1] + p[i - 1]) / 4;
      p[i] = p[i] - (u[i] + v[i]) / 8;
    }
  }
  var s = 0;
  for (var q = 1; q + 1 < n; q = q + 1) { s = s + p[q] + u[q]; }
  return s;
}
""",
        args=(64, 1000, 2000, 3000),
        preload={1000: _SMALL, 2000: list(_SMALL), 3000: list(_TABLE)},
        unroll_for=2,
    )
)

_add(
    Workload(
        name="twolf",
        description="standard-cell placement: cost evaluation with "
        "balanced conditionals",
        source="""
fn main(moves, cost, pos) {
  var total = 0;
  var accepted = 0;
  for (var m = 0; m < moves; m = m + 1) {
    var dx = cost[m & 255] - pos[m & 31];
    if (dx < 0) { dx = 0 - dx; }
    var delta = dx * 2 - 30;
    if (delta < 0) {
      accepted = accepted + 1;
      total = total + delta;
    } else {
      if ((m & 7) == 3) {
        accepted = accepted + 1;
        total = total + delta / 2;
      }
    }
  }
  return total + accepted;
}
""",
        args=(400, 1000, 2000),
        preload={1000: _TABLE, 2000: _SMALL},
    )
)

_add(
    Workload(
        name="vortex",
        description="OO database: record validation if-chains and copy "
        "loops",
        source="""
fn validate(tag, size) {
  if (tag == 0) { return 0; }
  if (size > 12) { return 2; }
  return 1;
}

fn main(records, tags, sizes, out) {
  var ok = 0;
  for (var r = 0; r < records; r = r + 1) {
    var status = validate(tags[r & 255] & 3, sizes[r & 255] & 15);
    if (status == 1) {
      var len = sizes[r & 255] & 7;
      for (var k = 0; k < len; k = k + 1) {
        out[k & 63] = tags[(r + k) & 255];
      }
      ok = ok + 1;
    }
  }
  return ok;
}
""",
        args=(260, 1000, 2000, 3000),
        preload={1000: _TABLE, 2000: _SMALL},
    )
)

_add(
    Workload(
        name="vpr",
        description="FPGA place&route: net bounding-box updates with "
        "min/max conditionals",
        source="""
fn main(nets, xs, ys) {
  var wirelen = 0;
  for (var n = 0; n < nets; n = n + 1) {
    var xmin = 1000; var xmax = 0;
    var pins = (xs[n & 255] & 3) + 2;
    for (var p = 0; p < pins; p = p + 1) {
      var x = xs[(n + p * 7) & 255];
      if (x < xmin) { xmin = x; }
      if (x > xmax) { xmax = x; }
    }
    wirelen = wirelen + (xmax - xmin) + ys[n & 255] & 127;
  }
  return wirelen;
}
""",
        args=(220, 1000, 2000),
        preload={1000: _TABLE, 2000: _SMALL},
    )
)

_add(
    Workload(
        name="wupwise",
        description="lattice QCD: complex arithmetic su(3)-style updates "
        "in regular loops",
        source="""
fn main(sites, re, im) {
  var sr = 0;
  var si = 0;
  for (var s = 0; s < sites; s = s + 1) {
    var ar = re[s & 255];    var ai = im[s & 255];
    var br = re[(s + 1) & 255]; var bi = im[(s + 1) & 255];
    var cr = ar * br - ai * bi;
    var ci = ar * bi + ai * br;
    sr = sr + cr - (sr >> 5);
    si = si + ci - (si >> 5);
  }
  return sr + si;
}
""",
        args=(400, 1000, 2000),
        preload={1000: _SMALL, 2000: list(reversed(_SMALL))},
        unroll_for=2,
    )
)

#: Table 3 ordering (19 benchmarks; the paper omits gcc and perlbmk).
SPEC_ORDER = [
    "ammp", "applu", "apsi", "art", "bzip2", "crafty", "equake", "gap",
    "gzip", "mcf", "mesa", "mgrid", "parser", "sixtrack", "swim", "twolf",
    "vortex", "vpr", "wupwise",
]

assert set(SPEC_ORDER) == set(SPEC_BENCHMARKS)

#: Small subset for quick runs (``record --quick``, the CI drift gate's
#: baseline): a mix of loopy and branchy workloads, not a representative
#: sample.
QUICK_SUBSET = ("ammp", "art", "bzip2", "equake", "mcf")


def check_workload_names(names) -> None:
    """Exit with the available SPEC names if any of ``names`` is unknown."""
    unknown = [name for name in names if name not in SPEC_BENCHMARKS]
    if unknown:
        raise SystemExit(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"available: {', '.join(SPEC_ORDER)}"
        )


def prepare_workloads(subset=None) -> list:
    """``(name, workload, profile)`` for ``subset`` (default: all 19)."""
    from repro.profiles import collect_profile

    names = list(subset) if subset else list(SPEC_ORDER)
    check_workload_names(names)
    prepared = []
    for name in names:
        workload = SPEC_BENCHMARKS[name]
        profile = collect_profile(
            workload.module(), args=workload.args, preload=workload.preload
        )
        prepared.append((name, workload, profile))
    return prepared
