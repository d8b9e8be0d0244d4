#!/usr/bin/env bash
# Compare the ellcm command line of this checkout with that of another tree.
#
#   tools/cli_cmp.sh PARENT_TREE
#
# PARENT_TREE is any source tree of ellcm, for example the parent commit
# unpacked with `git archive HEAD~1 | tar -x -C /tmp/parent`.  The script
# runs the CLI commands of README.md, every verify suite at its default
# arguments, the quasi-periodicity suite at 3 and 5 bodies, the
# zero-curvature suite at 5 and 8 bodies, the JSON output of eval, verify,
# flow and map, the flows and the symmetry README.md does not show, four
# kernels at small Im tau (wp among them, at a reduced modulus), a flow at
# one body, whose pair table is empty, a flow at 3 bodies and a reduced
# modulus, tau-flows at 5 and 6 bodies, one on each side of the switch of
# the pair paths (ARRAY_PAIRS_FROM), flows at 5, 8 and 16 bodies, the
# monodromy triple at 3 bodies (also at a reduced modulus, whose series has
# three terms) and at a small Im tau, where the pole loop shrinks to half
# the shortest period, and the triple of two colliding
# bodies, which exits 3 and names the pair, the version and the help, the
# error exits of eval, verify and flow, the triple product at a point
# where it leaves the double range, the hamilton-consistency suite at 5
# bodies and the symplectic-jacobian suite at 3, non-finite numbers, a
# zero drift step and an empty time span, moduli where the default pole
# loop would enclose a second lattice point (a smaller loop, none at all,
# and a drift step across the change of radius), spans too short for
# absolute step thresholds,
# negative numbers written without '=', body counts below 1, the
# stepper's other exits (a step collapse, an RK4 collision and an RK4
# tau-flow on the array pair path), a monodromy report that fails its
# determinant identities (exit 3), a tau-flow and a monodromy report in
# skewed lattices, wp on both sides of the pole check's radius at a
# tail modulus and a skewed one and near an integer on the real axis, and
# a JSON tau-flow shorter than two initial steps, and the README triple
# at rel_tol 1e-6 (accepted within its first L batch) and at rel_tol 1e-16
# (stagnation),
# and the README triple at tau = 1.3+0.8i, where the cubic relation holds
# for the cycles from the one base (1 + tau)/4 alone, and the Lame kernels
# x and y on both sides of the window of the plain quotient: at a band
# modulus (the plain quotient) and at a tall lattice, where the factors of
# the quotient leave the double range and x does not (exit 0) or x does
# (exit 2), once per tree,
# each with that tree's src/ on PYTHONPATH and in an empty working
# directory, and compares stdout, stderr and the exit code byte for byte.
# It prints one line per command and exits 0 when every command agrees, 1
# when one differs (the outputs are then kept and their directory is
# printed) and 2 on a usage error.  Below each command that differs it
# prints one more line: the largest relative difference |a - b| / max(|a|,
# |b|) between the numbers the two outputs hold, stdout then stderr, taken
# in order (a complex number is its real and imaginary parts), with the
# two numbers, or the two counts of numbers where they differ.
set -u

# largest_rel_diff PARENT_DIR CHANGE_DIR: the extra line of a differing
# command
largest_rel_diff() {
    python3 - "$1" "$2" <<'PY'
import re
import sys

number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numbers(side):
    text = "".join(open(f"{side}/{name}", errors="replace").read()
                   for name in ("stdout", "stderr"))
    return [float(x) for x in number.findall(text)]


a, b = (numbers(side) for side in sys.argv[1:])
if len(a) != len(b):
    print(f"         numbers: {len(a)} in the parent's output, "
          f"{len(b)} in the change's")
else:
    rel, x, y = max(((abs(x - y) / max(abs(x), abs(y)), x, y)
                     for x, y in zip(a, b) if x != y), default=(0.0, 0, 0))
    print(f"         largest relative difference {rel:.3g} ({x!r} "
          f"against {y!r}) over {len(a)} numbers")
PY
}

here=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ne 1 ] || [ ! -d "$1/src/ellcm" ]; then
    echo "usage: $0 PARENT_TREE (a source tree holding src/ellcm)" >&2
    exit 2
fi
there=$(cd "$1" && pwd)

commands=()
while IFS= read -r line; do
    commands+=("${line#ellcm }")
done < <(sed -n '/^## CLI/,/^Common flags/p' "$here/README.md" | grep '^ellcm ')
for suite in $(PYTHONPATH="$here/src" python3 -c \
        'from ellcm.verify import SUITES; print(*SUITES)'); do
    commands+=("verify $suite")
done
# the Lax pair at 3 and 5 bodies, below ARRAY_PAIRS_FROM = 6, where eom
# loops over the pairs (the zero-curvature suite adds n + 1 bodies, so its
# 6 bodies take the array path), and at 8 and 9 bodies, where the Lax
# entries reach ~1e3
commands+=("verify quasi-periodicity --n 3" "verify quasi-periodicity --n 5"
           "verify zero-curvature --n 5" "verify zero-curvature --n 8")
# the JSON branch of the writer
commands+=("eval wp --z 0.3 --tau 1.0i --format json"
           "verify lame-identities --count 5 --format json"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1.0 --format json"
           "map --q 0.25+0.1i --tau 0.9i --format json")
# a tau-flow, projected momenta and a half-period shift
commands+=("flow isomonodromic --n 2 --g 0.5 --tau 1.0i --tau-end 0.05+1.0i --q 0.1,0.55 --p 0.2,-0.2"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,0.4 --t-end 0.1 --samples 1 --traceless"
           "symmetry s4-shift --q 0.3 --tau 1.0i --a 3")
# kernels at small Im tau, where the series runs at a reduced modulus
# gamma tau
commands+=("eval wp-dz --z 0.23+0.0074i --tau 0.02i"
           "eval lame-y --u 0.3 --z 0.2+0.01i --tau 0.01+0.08i"
           "eval theta1 --z 0.2+0.01i --tau 0.45+0.03i"
           "eval wp --z 0.2+0.01i --tau 0.45+0.03i")
# one body: no pairs, so eom and H evaluate no series
commands+=("flow isomonodromic --n 1 --g 0.5 --tau 1.0i --tau-end 0.05+1.0i --q 0.2+0.1i --p 0.3")
# eom and H on the scalar pair path, below ARRAY_PAIRS_FROM bodies, at a
# modulus the series reduces (Im tau below 0.7725)
commands+=("flow isomonodromic --n 3 --g 0.5 --tau 0.2+0.6i --tau-end 0.2+0.62i --q 0.1,0.45+0.2i,0.75-0.1i --p 0.2,-0.3,0.1")
# one body short of ARRAY_PAIRS_FROM = 6, on the scalar pair path, and at it
commands+=("flow isomonodromic --n 5 --g 0.5 --tau 0.02+1.0i --tau-end 0.04+1.02i --q 0.05,0.27+0.04i,0.46-0.03i,0.63+0.02i,0.84 --p 0.2,-0.3,0.25,-0.15,0.1"
           "flow isomonodromic --n 6 --g 0.5 --tau 0.02+1.0i --tau-end 0.04+1.02i --q 0.02,0.18+0.03i,0.35-0.02i,0.51+0.02i,0.68,0.84-0.03i --p 0.25,-0.3,0.2,-0.2,0.3,-0.25")
# eom and H on the array pair path at 8 bodies, and on the scalar one at 5
commands+=("flow isomonodromic --n 8 --g 0.5 --tau 1.0i --tau-end 0.02+1.05i --q 0,0.13+0.02i,0.25-0.01i,0.37+0.03i,0.5,0.62-0.02i,0.75+0.01i,0.88 --p 0.3,-0.25,0.2,-0.3,0.28,-0.22,0.3,-0.31"
           "flow isospectral --n 5 --g 0.7 --tau 0.1+1.0i --q 0.05,0.27+0.04i,0.46-0.03i,0.63+0.02i,0.84 --p 0.2,-0.3,0.25,-0.15,0.1 --t-end 0.3")
# 120 pairs in each array pair sum
commands+=("flow isomonodromic --n 16 --g 0.5 --tau 1.0i --tau-end 0.004+1.0i --q 0,0.06+0.02i,0.13-0.01i,0.19+0.02i,0.25,0.31-0.02i,0.38+0.01i,0.44,0.5+0.02i,0.56-0.01i,0.63,0.69+0.02i,0.75-0.02i,0.81+0.01i,0.88,0.94-0.01i --p 0.3,-0.27,0.32,-0.25,0.34,-0.23,0.36,-0.21,0.38,-0.19,0.4,-0.17,0.42,-0.15,0.44,-0.13")

# the monodromy triple at 3 bodies, at tau = 0.2+0.6i also, where the
# series sums at gamma tau with three terms, and at tau = 0.045i, whose
# pole loop of radius 0.0225 has a radial leg that takes most of the
# loop's panels
commands+=("monodromy --n 3 --g 0.3 --tau 0.1+1.0i --q 0.1,0.45+0.2i,0.75-0.1i --p 0.2,-0.3+0.1i,0.05 --drift 0.01"
           "monodromy --n 3 --g 0.3 --tau 0.2+0.6i --q 0.1,0.45+0.15i,0.75-0.1i --p 0.2,-0.3+0.1i,0.05 --drift 0.01"
           "monodromy --n 2 --g 0.35 --tau 0.045i --q 0.11+0.003i,0.52-0.004i --p 0.31,-0.45")
# two bodies 1e-8 apart: the transport stops with exit 3, naming the pair
commands+=("monodromy --n 2 --g 0.35 --tau 1.0i --q 0.3,0.3+0.00000001i --p 0.3,-0.3")
# the parser alone (the version, and the help without a command, exit 1)
# and the error exits of commands that import their layers when they run,
# where a missing import would show: a pole (exit 2), an unknown suite and
# a flow without --q (exit 1)
commands+=("--version" ""
           "eval wp --z 0 --tau 1.0i"
           "verify nonsense"
           "flow isospectral --n 2 --g 1 --tau 1.0i --p 0.2,-0.2 --t-end 1.0")
# the triple product where cos(2 pi (v + 1/2)) leaves the double range at
# the reduced point: exit 2, where theta1 itself has a value
commands+=("eval theta1-product --z=-1.4488323930057172+0.0032617019776511763i --tau 0.003i")
# the central differences at sizes other than the suites' defaults
commands+=("verify hamilton-consistency --n 5"
           "verify symplectic-jacobian --n 3")
# non-finite numbers, a zero drift step and an empty time span: usage
# errors (exit 1) that write nothing
commands+=("flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end nan"
           "flow isomonodromic --n 2 --g 0.5 --tau 1.0i --tau-end nan+1i --q 0.1,0.55 --p 0.2,-0.2"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1.0 --rel-tol nan"
           "monodromy --n 2 --g 0.35 --tau 1.0i --q nan,0.52-0.07i --p 0.31,-0.45"
           "eval wp --z nan --tau 1.0i"
           "eval wp --z 0.3 --tau nan+1i"
           "eval wp --z inf --tau 1.0i"
           "map --q nan --tau 0.9i"
           "flow isospectral --n 2 --g nan --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1.0"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1.0 --step nan"
           "monodromy --n 2 --g 0.35 --tau 1.0i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45 --drift 0"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 0")
# moduli where a pole loop of radius 0.1 would enclose a lattice point
# other than 0: at tau = 0.06i the triple takes radius 0.03, at 0.0015i no
# loop of radius above 1e-3 fits (exit 1), and a drift step from 0.115i
# to 0.105i compares triples at radius 0.1 and 0.0525
commands+=("monodromy --n 2 --g 0.35 --tau 0.06i --q 0.11+0.01i,0.52-0.02i --p 0.31,-0.45"
           "monodromy --n 2 --g 0.35 --tau 0.0015i --q 0.11+0.0003i,0.52-0.0002i --p 0.31,-0.45"
           "monodromy --n 2 --g 0.35 --tau 0.115i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45 --drift=-0.01i")
# spans far below 1: every sample, with no false step collapse
commands+=("flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1e-20 --samples 2"
           "flow isomonodromic --n 2 --g 0.5 --tau 1.0i --tau-end 1.0000000000000002i --q 0.1,0.55 --p 0.2,-0.2 --samples 2"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1e-14 --samples 16")
# negative numbers written without '='
commands+=("eval wp --z -0.1+0.2i --tau 1.0i"
           "eval wp --z -1e-1 --tau 1.0i"
           "flow isospectral --n 2 --g 1 --tau 1.0i --q -0.1,0.55 --p 0.2,-0.2 --t-end 1.0"
           "symmetry landin --alpha -0.1,0.2,0.2,-0.1")
# body counts below 1: usage errors (exit 1)
commands+=("flow isospectral --n 0 --g 1 --tau 1.0i --q 0.1,0.55 --p 0.2,-0.2 --t-end 1.0"
           "monodromy --n 0 --g 0.35 --tau 1.0i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45"
           "verify monodromy --n 0")
# the stepper's other exits: the adaptive step collapses at two bodies
# 5e-5 apart, RK4 stops at a collision, and RK4 runs a tau-flow at
# ARRAY_PAIRS_FROM = 6 bodies to its end
commands+=("flow isospectral --n 2 --g 5e-6 --tau 1.0i --q 0.499975,0.500025 --p 0.1,-0.1 --t-end 1.0"
           "flow isospectral --n 2 --g 1e-6 --tau 1.0i --q 0.499,0.501 --p 0.1,-0.1 --t-end 1.0 --method rk4_fixed --step 0.01"
           "flow isomonodromic --n 6 --g 0.5 --tau 0.02+1.0i --tau-end 0.04+1.02i --q 0.02,0.18+0.03i,0.35-0.02i,0.51+0.02i,0.68,0.84-0.03i --p 0.25,-0.3,0.2,-0.2,0.3,-0.25 --method rk4_fixed --step 0.002")
# a B cycle 17 cells long: the report is written, and its determinant
# residual Mtau of order one exits 3
commands+=("monodromy --n 2 --g 0.35 --tau 17.3+0.8i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45")
# lattice geometry in skewed lattices, whose basis (1, tau) is many times
# longer than the shortest period: the collision guard of a tau-flow, and
# the clearance of a 9-cell B cycle
commands+=("flow isomonodromic --n 2 --g 0.5 --tau 17.3+0.8i --tau-end 17.32+0.82i --q 0.1,0.55+0.2i --p 0.2,-0.2"
           "monodromy --n 2 --g 0.35 --tau 9.1+0.8i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45")
# the pole check's boundary: wp 5e-7 from a lattice point outside the
# cell (exit 2 with the distance) and 2e-6 from it (a value), at a tail
# modulus whose reduced tau' is tall and at a skewed one the series keeps,
# and 1.5e-6 from an integer on the real axis
commands+=("eval wp --z 2.015+0.2700005i --tau 0.005+0.09i"
           "eval wp --z 2.015+0.270002i --tau 0.005+0.09i"
           "eval wp --z=-31.6-1.6000005i --tau 17.3+0.8i"
           "eval wp --z=-31.6-1.600002i --tau 17.3+0.8i"
           "eval wp --z 3.0000015 --tau 0.005+0.09i")
# a tau-flow 0.005 long, under two initial steps of 0.01: its samples
# need two steps, and the JSON diagnostics count its right-hand sides
commands+=("flow isomonodromic --n 2 --g 0.5 --tau 1.0i --tau-end 1.005i --q 0.1,0.55 --p 0.2,-0.2 --format json")
# the README triple where its refinement levels share L batches
# differently: accepted at the first batch's second level (rel_tol 1e-6),
# and a tolerance below rounding, whose stagnation error must name the
# same level
readme_triple="monodromy --n 2 --g 0.35 --tau 1.0i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45"
commands+=("$readme_triple --rel-tol 1e-6"
           "$readme_triple --rel-tol 1e-16 --abs-tol 1e-18")
# a modulus where the straight cycles from a base other than (1 + tau)/4
# change class (the cubic relation then misses by 24): the triple's cubic
# residual stays at rounding
commands+=("monodromy --n 2 --g 0.35 --tau 1.3+0.8i --q 0.11+0.03i,0.52-0.07i --p 0.31,-0.45")
# the Lame kernels inside the window of the plain quotient (a band
# modulus), outside it where x is an ordinary number (the tall-lattice
# pair, whose lattice factor is e^{782}), and where x itself leaves the
# double range (exit 2)
commands+=("eval lame-x --u 0.31+0.2i --z 0.77+0.45i --tau 0.3+1.1i"
           "eval lame-y --u 0.31+0.2i --z 0.77+0.45i --tau 0.3+1.1i"
           "eval lame-x --u 0.5529+124.75i --z=-0.5199-124.75i --tau 0.1+250i"
           "eval lame-y --u 0.5529+124.75i --z=-0.5199-124.75i --tau 0.1+250i"
           "eval lame-x --u=-0.245-112.5i --z 0.52+550i --tau 0.1+250i")

work=$(mktemp -d)
differ=0
for i in "${!commands[@]}"; do
    read -ra argv <<< "${commands[$i]}"
    for side in parent change; do
        tree=$there
        [ "$side" = change ] && tree=$here
        mkdir -p "$work/$i/$side/cwd"
        (cd "$work/$i/$side/cwd" \
            && PYTHONPATH="$tree/src" python3 -m ellcm.cli "${argv[@]}" \
                > ../stdout 2> ../stderr
         echo $? > ../exit)
    done
    streams=""
    for f in stdout stderr exit; do
        cmp -s "$work/$i/parent/$f" "$work/$i/change/$f" \
            || streams="$streams $f"
    done
    if [ -z "$streams" ]; then
        echo "same     ellcm ${commands[$i]}"
    else
        echo "DIFFERS  ellcm ${commands[$i]}  (${streams# }; $work/$i)"
        largest_rel_diff "$work/$i/parent" "$work/$i/change"
        differ=$((differ + 1))
    fi
done

echo "$((${#commands[@]} - differ)) of ${#commands[@]} commands identical"
if [ "$differ" -eq 0 ]; then
    rm -rf "$work"
    exit 0
fi
echo "outputs kept in $work"
exit 1
