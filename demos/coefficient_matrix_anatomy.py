"""
Anatomy of the alignment coefficient matrix
===========================================

Builds the C x V coefficient matrix of the linearized alignment system
for a three-pair ring and picks it apart: which row belongs to which
cross constraint, which columns belong to which stream, and what the
text dump format looks like on the wire.
"""

import io

import numpy as np

from iafeas import (
    NetworkConfig,
    build_jacobian,
    col_index,
    parse_dump,
    row_index,
    sample_channels,
    system_shape,
)

cfg = NetworkConfig.symmetric(3, 2, 2, 1)
C, V = system_shape(cfg)
print(f"network {cfg.describe()}: {C} constraints, {V} free variables")

channels = sample_channels(cfg, seed=7)
jac = build_jacobian(channels)

# Each cross constraint (k, j, p, q) owns one row. The row touches the
# receive variables of stream (k, p) and the transmit variables of
# stream (j, q), nothing else, so the matrix is extremely sparse.
print("\nrow map:")
for quad in cfg.quads():
    r = row_index(cfg, *quad)
    print(f"  row {r}: receiver {quad[0]} stream {quad[2]}"
          f" versus transmitter {quad[1]} stream {quad[3]}")

# Columns are the free entries of the filters, addressed as
# (kind, pair, antenna component, stream).
print("\ncolumn map for pair 2:")
print("  u(2,1,1) ->", col_index(cfg, ("u", 2, 1, 1)))
print("  v(2,1,1) ->", col_index(cfg, ("v", 2, 1, 1)))

# The dump format carries the shape, the field, and one entry per line.
buf = io.StringIO()
jac.dump(buf)
text = buf.getvalue()
print("\ndump header:", text.splitlines()[0])
print("first three entries:")
for line in text.splitlines()[1:4]:
    print(" ", line)

# Round trip: the parser recovers shape, field token, and triplets.
C2, V2, token, triplets = parse_dump(text)
dense = np.zeros((C2, V2), dtype=complex)
for r, c, v in triplets:
    dense[r - 1, c - 1] = v
print("\nparsed back:", C2, "x", V2, "over", token)
print("nonzeros per row:", np.count_nonzero(dense, axis=1))
