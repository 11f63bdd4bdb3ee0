#!/usr/bin/env bash
# Topology lint: mesh geometry has exactly one home.
#
# The pluggable topology layer (internal/topology) owns grid geometry —
# coordinate mapping, integer roots, distances — and internal/network is
# the one facade allowed to re-export it (its Coord/Index methods
# delegate to the embedded Topology). Everything else must consume
# geometry through those two packages. This lint fails when a third
# definition creeps back in:
#
#   1. a method named Coord/Coord3/Index/Index3 over integer grid
#      coordinates defined outside internal/topology + internal/network
#      (lattice.Indexer's Index(p Point) maps lattice points, not grid
#      nodes, and is excluded by the int-signature anchor — as are call
#      sites like ma.Coord(i), which do not start with "func (");
#   2. a private integer-root helper (intSqrt/intCbrt) outside
#      internal/topology itself — the network facade delegates shape
#      checks to topology.NewMesh and needs no roots of its own
#      (analytic.IntSqrtExact is the exported, panicking sibling and
#      intentionally distinct).
#
# Run from the repository root: scripts/topolint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

GEOM=$(grep -rnE 'func \([^)]*\) (Coord3?|Index3?)\([a-z, ]+ int\)' --include='*.go' . |
  grep -v '^\./internal/topology/' | grep -v '^\./internal/network/' || true)
if [ -n "$GEOM" ]; then
  echo "topolint: grid coordinate methods defined outside internal/topology + internal/network:" >&2
  echo "$GEOM" >&2
  fail=1
fi

ROOTS=$(grep -rnE '\b(intSqrt|intCbrt)\b' --include='*.go' . |
  grep -v '^\./internal/topology/' || true)
if [ -n "$ROOTS" ]; then
  echo "topolint: private integer-root helpers referenced outside internal/topology:" >&2
  echo "$ROOTS" >&2
  fail=1
fi

[ "$fail" = 0 ] || exit 1
echo "topolint: OK"
