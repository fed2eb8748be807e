#!/usr/bin/env bash
# Runs the `pnormdist` console script found on PATH once for every
# subcommand, so the installed [project.scripts] entry point is tested rather
# than the source tree. Run it with PYTHONWARNINGS=error, which makes every
# warning an error:
#
#     PYTHONWARNINGS=error bash .github/console-smoke.sh [WORKDIR]
#
# check-and (on points and, with --kind matrix, on the matrix distmat wrote)
# and embed need numpy.linalg only; interp fits, so it reaches the deferred
# scipy import. singular-config certifies from the m + n + 2 cube vertices,
# whose zero coordinate differences go through pow_abs; it runs both forms,
# theta* at a given p and the (m, n) pair at its root p_{m,n}, and a side-12
# cube at the default --cert-cap. interp also fits data of +-1e200, whose
# squared 2-norm overflows, and centres of 4e307, whose matrix 1-norm
# overflows to an infinite condition estimate. check-and and interp run again
# at p = 2, where the kernel squares, and distmat must reject (exit 2) points
# whose squares overflow.
set -euo pipefail

dir="${1:-$(mktemp -d)}"

pnormdist find-pn --n-min 2 --n-max 3 --out "$dir/pn.csv"
pnormdist singular-config --n 3 --p 3 --out-points "$dir/cube.csv" --out-cert "$dir/cert.json"
pnormdist singular-config --m 2 --n 3 --out-points "$dir/cube-mn.csv" --out-cert "$dir/cert-mn.json"
pnormdist singular-config --n 12 --p 3 --out-points "$dir/cube-12.csv" --out-cert "$dir/cert-12.json"
printf '0,0\n1,0\n0,1\n' > "$dir/three.csv"
pnormdist check-and "$dir/three.csv" --p 1.5
pnormdist distmat "$dir/three.csv" --p 1.5 --out "$dir/three-A.csv"
pnormdist check-and "$dir/three-A.csv" --kind matrix
pnormdist embed "$dir/three-A.csv" --out "$dir/three-Y.csv"
pnormdist scan-psi --n 2,3 --p-grid 2:3:0.5 --out "$dir/psi.csv" --json-out "$dir/psi.json"
printf '0,0,1\n1,0,0\n0,1,0\n' > "$dir/data.csv"
printf '0.5,0.5\n' > "$dir/queries.csv"
pnormdist interp "$dir/data.csv" --p 1.5 --query-file "$dir/queries.csv" --out "$dir/v.csv"
printf '0,0,1e200\n1,0,-1e200\n0,1,1e200\n' > "$dir/big.csv"
pnormdist interp "$dir/big.csv" --p 1.5 --query-file "$dir/queries.csv" --out "$dir/big-v.csv"
printf '0,0,1\n4e307,0,2\n0,4e307,3\n' > "$dir/huge.csv"
pnormdist interp "$dir/huge.csv" --p 0.5 --query-file "$dir/queries.csv" --out "$dir/huge-v.csv" \
    > "$dir/huge.json"
grep -q '"condition_estimate":"inf"' "$dir/huge.json"
pnormdist check-and "$dir/three.csv" --p 2
pnormdist interp "$dir/data.csv" --p 2 --query-file "$dir/queries.csv" --out "$dir/v2.csv"
printf '0,0\n1e200,0\n0,1e200\n' > "$dir/far.csv"
code=0
pnormdist distmat "$dir/far.csv" --p 2 --out "$dir/far-A.csv" 2> "$dir/far.err" || code=$?
test "$code" -eq 2
grep -q "overflow a double at p = 2" "$dir/far.err"
