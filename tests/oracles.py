"""Independent brute-force reference implementations used only by tests.

Everything here is written in plain Python loops, straight from the
definitions, deliberately avoiding the vectorized code paths of the package:
sums go through `math.fsum`, exactly rounded, where the package sums
pairwise; P8 walks the range-normalized sequence where the package divides
P4 by P2; and the root line comes from the uncentered normal equations
where the package centers the roots on their mean.
The exception is `oracle_simulate_frame`, the package's earlier per-frame
simulation, kept in its numpy form because the block simulation must match
its bytes.
"""

import math


def oracle_features(samples):
    """All ten parameters of a sequence as a dict ``{"P1": ..., ...}``."""
    y = [float(v) for v in samples]
    n = len(y)
    mean = math.fsum(y) / n
    dy = [v - mean for v in y]

    out = {"P1": mean}
    out["P2"] = max(y) - min(y)

    hi = max(dy)
    lo = min(dy)
    out["P3"] = hi - abs(lo)  # caller guarantees both signs present

    # running-sum range, walk starts at 0
    j = 0.0
    jmax = 0.0
    jmin = 0.0
    for v in dy:
        j += v
        jmax = max(jmax, j)
        jmin = min(jmin, j)
    out["P4"] = jmax - jmin

    out["P5"] = (max(y) - mean) / (mean - min(y))

    last_up = last_dn = None
    for i, v in enumerate(dy):
        if v > 0:
            last_up = i + 1
        elif v < 0:
            last_dn = i + 1
    out["P6"] = float(last_up - last_dn)

    # closed form: the bell maximum is the total positive deviation
    out["P7"] = math.fsum(v for v in dy if v > 0)

    rng = max(y) - min(y)
    j = 0.0
    jmax = 0.0
    jmin = 0.0
    for v in dy:
        j += v / rng
        jmax = max(jmax, j)
        jmin = min(jmin, j)
    out["P8"] = jmax - jmin

    roots = oracle_roots(dy)
    a, b, _ = oracle_line_fit(roots)
    out["P9"] = math.pi / a
    phi = math.fmod(math.pi * b / a - math.pi / 2.0, math.pi)
    if phi < 0:
        phi += math.pi
    if phi >= math.pi:
        phi -= math.pi
    out["P10"] = phi
    return out


def oracle_roots(dy):
    """Zero crossings of an already-centered sequence, one pass."""
    roots = []
    prev_zero = False
    for i, v in enumerate(dy):
        if v == 0.0:
            if not prev_zero:
                roots.append(float(i))
            prev_zero = True
        else:
            prev_zero = False
    for i in range(len(dy) - 1):
        if dy[i] * dy[i + 1] < 0:
            roots.append(i + dy[i] / (dy[i] - dy[i + 1]))
    roots.sort()
    return roots


def oracle_line_fit(roots):
    """OLS of roots against 1-based index via the normal equations."""
    kk = len(roots)
    sk = kk * (kk + 1) / 2.0
    skk = kk * (kk + 1) * (2 * kk + 1) / 6.0
    sr = math.fsum(roots)
    skr = math.fsum((i + 1) * r for i, r in enumerate(roots))
    a = (kk * skr - sk * sr) / (kk * skk - sk * sk)
    b = (sr - a * sk) / kk
    rss = math.fsum((r - (a * (i + 1) + b)) ** 2 for i, r in enumerate(roots))
    return a, b, math.sqrt(rss / kk)


def oracle_p_value(r, n):
    """Two-sided t-tail by adaptive quadrature of the density (mpmath)."""
    import mpmath as mp

    with mp.workdps(40):
        df = n - 2
        t = abs(r) * mp.sqrt(df / (1 - mp.mpf(r) ** 2))
        c = mp.gamma((df + 1) / mp.mpf(2)) / (
            mp.sqrt(df * mp.pi) * mp.gamma(df / mp.mpf(2))
        )

        def pdf(x):
            return c * (1 + x * x / df) ** (-(df + 1) / mp.mpf(2))

        return float(2 * mp.quad(pdf, [t, mp.inf]))


def oracle_simulate_frame(clean, profile, seed):
    """One frame of ``pipeline.simulate_device`` as it was made before the
    block simulation: the front end, then ``default_rng(seed)``'s jitter,
    noise I and noise Q, all on this one frame."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = np.asarray(clean, dtype=complex).copy()

    if profile.cubic_nonlinearity != 0.0:
        x = x + profile.cubic_nonlinearity * x * np.abs(x) ** 2

    g = profile.gain_imbalance
    phi = profile.quadrature_error
    if g != 0.0 or phi != 0.0:
        i = x.real
        q = x.imag
        x = (1.0 + 0.5 * g) * i + 1j * (
            (1.0 - 0.5 * g) * (np.cos(phi) * q + np.sin(phi) * i)
        )

    if profile.dc_offset != 0:
        x = x + profile.dc_offset

    if profile.phase_noise_rms > 0.0:
        jitter = rng.normal(0.0, profile.phase_noise_rms, x.size)
        x = x * np.exp(1j * jitter)

    if profile.snr_db is not None:
        p_sig = float(np.mean(np.abs(x) ** 2))
        p_noise = p_sig * 10.0 ** (-profile.snr_db / 10.0)
        sigma = math.sqrt(p_noise / 2.0)
        x = x + sigma * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size))

    return x


def _oracle_int(token):
    """int(token), or None where int rejects the token."""
    try:
        return int(token)
    except ValueError:
        return None


def _oracle_node_line(fields, nid, n_nodes, n_classes, n_features):
    """One node line of a model file, split into ``fields``, checked rule
    by rule: ``("leaf", counts)``, ``("split", feature, threshold, left,
    right)``, or the message of the first rule it breaks.  A number that
    int or float rejects, or an int64 count cannot hold, breaks the rule of
    its field."""
    if fields[:2] == [str(nid), "leaf"]:
        counts = [_oracle_int(v) for v in fields[2:]]
        if (len(counts) != n_classes or None in counts
                or not all(0 <= c < 2**63 for c in counts)
                or sum(counts) == 0):
            return (f"a leaf needs {n_classes} non-negative counts, "
                    "not all zero")
        return ("leaf", counts)
    if fields[:2] != [str(nid), "split"] or len(fields) != 6:
        return f"expected '{nid} leaf ...' or '{nid} split ...'"
    feature, left, right = (_oracle_int(fields[k]) for k in (2, 4, 5))
    if feature is None or not 0 <= feature < n_features:
        return f"feature {fields[2]} out of range"
    if (left is None or right is None
            or not (nid < left < n_nodes and nid < right < n_nodes)):
        return f"child ids must lie in ({nid}, {n_nodes})"
    try:
        threshold = float(fields[3])
    except ValueError:
        threshold = math.nan
    if not math.isfinite(threshold):
        return f"threshold {fields[3]} is not finite"
    return ("split", feature, threshold, left, right)


def oracle_model_trees(lines, n_trees, n_classes, n_features):
    """The tree and node lines of a model file (``lines``, the tree lines
    starting at index 4) read line by line.

    Returns the message of the first malformed line, or the lines as the
    writer puts them and every node's class counts, a split node's the sum
    of its children's.
    """
    out, counts, pos = [], [], 4
    for t in range(n_trees):
        head = lines[pos].split() if pos < len(lines) else []
        size = (_oracle_int(head[2])
                if len(head) == 3 and head[:2] == ["tree", str(t)] else None)
        if size is None or not 1 <= size < 2**63:
            return f"line {pos + 1}: expected 'tree {t} <n_nodes>'"
        body = lines[pos + 1:pos + 1 + size]
        if len(body) != size:
            return (f"tree {t}: expected {head[2]} node lines, "
                    f"found {len(body)}")
        nodes = []
        for nid, line in enumerate(body):
            node = _oracle_node_line(line.split(), nid, size, n_classes,
                                    n_features)
            if isinstance(node, str):
                return f"line {pos + 2 + nid}: node {nid}: {node}"
            nodes.append(node)
        children = sorted(c for node in nodes if node[0] == "split"
                          for c in node[3:])
        if children != list(range(1, size)):
            return (f"line {pos + 2}: some node other than the root is not "
                    "the child of exactly one node")
        if sum(sum(node[1]) for node in nodes if node[0] == "leaf") >= 2**63:
            return (f"line {pos + 1}: tree {t}: the leaf counts sum to 2^63 "
                    "or more")
        tree_counts = [None] * size
        for nid in reversed(range(size)):  # children have larger ids
            node = nodes[nid]
            tree_counts[nid] = (node[1] if node[0] == "leaf" else
                                [a + b for a, b in zip(tree_counts[node[3]],
                                                       tree_counts[node[4]])])
        out.append(f"tree {t} {size}")
        out += [" ".join([str(nid), "leaf", *map(str, node[1])])
                if node[0] == "leaf" else
                f"{nid} split {node[1]} {node[2]!r} {node[3]} {node[4]}"
                for nid, node in enumerate(nodes)]
        counts += tree_counts
        pos += 1 + size
    if pos != len(lines):
        return f"line {pos + 1}: text after the last tree"
    return out, counts


def oracle_logistic_fit(features_std, labels01, l2, dps=50):
    """The minimizer (weights, bias) of the L2-penalized mean cross-entropy,
    bias unpenalized, by plain Newton steps at ``dps`` digits (mpmath),
    from zero, until a step's largest component is below 10^-(dps - 10).
    Meant for small, non-separable tables, where plain Newton converges."""
    import mpmath as mp

    with mp.workdps(dps):
        rows = [[mp.mpf(float(v)) for v in r] + [mp.mpf(1)]
                for r in features_std]
        y = [mp.mpf(float(v)) for v in labels01]
        n, m = len(rows), len(rows[0])
        pen = [mp.mpf(l2)] * (m - 1) + [mp.mpf(0)]
        theta = [mp.mpf(0)] * m
        while True:
            p = [1 / (1 + mp.exp(-mp.fsum(t * x for t, x in zip(theta, r))))
                 for r in rows]
            grad = [mp.fsum((p[i] - y[i]) * rows[i][j] for i in range(n)) / n
                    + pen[j] * theta[j] for j in range(m)]
            hess = mp.matrix(m, m)
            for j in range(m):
                for k in range(m):
                    hess[j, k] = mp.fsum(p[i] * (1 - p[i]) * rows[i][j]
                                         * rows[i][k] for i in range(n)) / n
                hess[j, j] += pen[j]
            step = mp.lu_solve(hess, mp.matrix(grad))
            theta = [t - s for t, s in zip(theta, step)]
            if max(abs(s) for s in step) < mp.mpf(10) ** (10 - dps):
                return [float(t) for t in theta[:-1]], float(theta[-1])
