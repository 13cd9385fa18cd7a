#!/bin/sh
# Golden gate in one command: compare the golden runs of revision REV
# with those of the working tree.
#
#     scripts/golden_check.sh REV
#
# Extracts REV with `git archive` into a temporary directory, runs each
# side's golden_runs.sh on its own package into temporary output
# directories, prints scripts/golden_diff.py's report, then compares byte
# for byte runs no golden run covers, on each side: the `simulate` record
# export of opposite_side.json at noise_power 0.3 (139 record files and
# records_meta.json), the `coverage --baseband` export of
# lane_multistatic.json, and `simulate` at noise_power 0.1, `coverage` and
# `fuse` of a multi-element scene written from lane_multistatic.json: a
# second Tx element per terminal, three targets with complex
# reflectivities, nonzero sync_errors_s and terminal 4 left out of the
# pairing (every golden scene has one Tx element per terminal and one
# target). It prints the line count of src/ on each side, and exits 1 if
# any of these exports differs, otherwise with golden_diff.py's code. The
# temporary directory is removed on exit and no bytecode is written, so no
# files or git state are left behind.
set -e
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "golden_check: not a commit: $1" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
export PYTHONDONTWRITEBYTECODE=1

# golden_runs.sh prefers a `netrad` on PATH; this one runs the package of
# the side under test, also where netrad is installed.
mkdir "$tmp/bin" "$tmp/base"
cat > "$tmp/bin/netrad" <<'EOF'
#!/bin/sh
PYTHONPATH="$NETRAD_SRC${PYTHONPATH:+:$PYTHONPATH}" exec python3 -m netrad.cli "$@"
EOF
chmod +x "$tmp/bin/netrad"
git archive "$rev" | tar -x -C "$tmp/base"

PATH="$tmp/bin:$PATH" NETRAD_SRC="$tmp/base/src" NETRAD_OUT="$tmp/out_base" \
    sh "$tmp/base/scripts/golden_runs.sh" >/dev/null
PATH="$tmp/bin:$PATH" NETRAD_SRC="$PWD/src" NETRAD_OUT="$tmp/out_tree" \
    sh scripts/golden_runs.sh >/dev/null

status=0
python3 scripts/golden_diff.py "$tmp/out_base" "$tmp/out_tree" || status=$?

# same NAME ARGS...: run `netrad ARGS` on each side into $tmp/NAME_base and
# $tmp/NAME_tree and compare the two trees byte for byte
same() {
    name=$1
    shift
    (cd "$tmp/base" && PATH="$tmp/bin:$PATH" NETRAD_SRC="$tmp/base/src" netrad "$@" --out "$tmp/${name}_base" >/dev/null)
    PATH="$tmp/bin:$PATH" NETRAD_SRC="$PWD/src" netrad "$@" --out "$tmp/${name}_tree" >/dev/null
    shown=$(echo "$*" | sed 's|'"$tmp"'/||g')
    if diff -r "$tmp/${name}_base" "$tmp/${name}_tree" >/dev/null; then
        echo "$shown: identical, $(find "$tmp/${name}_tree" -type f | wc -l | tr -d ' ') files"
    else
        echo "$shown: differs"
        diff -rq "$tmp/${name}_base" "$tmp/${name}_tree" | sed 's|'"$tmp"'/||g' | head -20
        status=1
    fi
}
same sim simulate --scenario scenarios/opposite_side.json --set noise_power=0.3
same baseband coverage --scenario scenarios/lane_multistatic.json --baseband
python3 - "$tmp/multi.json" <<'EOF'
import json, sys
doc = json.load(open("scenarios/lane_multistatic.json"))
for term in doc["terminals"]:
    (x, y), = term["tx_elements"]
    term["tx_elements"].append([x + 0.0107, y + 0.004])
doc["targets"] = [{"position": [0.0, 20.0], "reflectivity": [1.0, 0.0]},
                  {"position": [0.45, 20.3], "reflectivity": [0.6, -0.3]},
                  {"position": [-0.35, 19.8], "reflectivity": [-0.2, 0.5]}]
doc["sync_errors_s"] = [[2e-12 * ((3 * l + k) % 5 - 2) for k in range(5)] for l in range(5)]
doc["pairing"] = [[int(l < 4 and k < 4) for k in range(5)] for l in range(5)]
json.dump(doc, open(sys.argv[1], "w"))
EOF
same multi_sim simulate --scenario "$tmp/multi.json" --set noise_power=0.1
same multi_coverage coverage --scenario "$tmp/multi.json"
same multi_fuse fuse --scenario "$tmp/multi.json"
src_lines() { find "$1/src" -name '*.py' -exec cat {} + | wc -l | tr -d ' '; }
echo "src/ lines: $(src_lines "$tmp/base") at $rev, $(src_lines .) in the working tree"
exit $status
