#!/bin/sh
# Non-test lines under crates/: each .rs file counts up to its first `#[cfg(test)]`;
# `benches/` directories are reported apart. Run from anywhere:
#   scripts/loc.sh          counts the working tree;
#   scripts/loc.sh <rev>    also counts the tree at <rev> (a commit) and prints
#                           <rev> -> working tree -> delta per crate.
cd "$(dirname "$0")/.." || exit 1
count() { xargs -r awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'; }
# One "<crate> <lines>" row per crate of the tree at $1, then "benches/ <lines>".
tally() (
    cd "$1" || exit 1
    for c in $(find crates -name Cargo.toml | sed 's|/Cargo.toml||' | sort); do
        echo "$c $(find "$c" -name '*.rs' -not -path '*/benches/*' | count)"
    done
    echo "benches/ $(find crates -path '*/benches/*.rs' | count)"
)
if [ $# -eq 0 ]; then
    tally . | awk '
        $1 == "benches/" { printf "%-26s %6d\n", "total (library)", total }
        $1 != "benches/" { total += $2 }
        { printf "%-26s %6d\n", $1, $2 }'
    exit
fi
old=$(mktemp -d) || exit 1
trap 'rm -rf "$old"' EXIT
git archive "$1" crates | tar -x -C "$old" || exit 1
tally "$old" | LC_ALL=C sort > "$old/loc"
# A crate present on one side only counts 0 on the other.
tally . | LC_ALL=C sort | LC_ALL=C join -a 1 -a 2 -e 0 -o 0,1.2,2.2 "$old/loc" - | awk -v rev="$1" '
    function row(name, before, after) { printf "%-26s %7d %7d %+7d\n", name, before, after, after - before }
    BEGIN { printf "%-26s %7s %7s %7s\n", "", substr(rev, 1, 7), "tree", "delta" }
    $1 == "benches/" { benches_before = $2; benches_after = $3; next }
    { row($1, $2, $3); before += $2; after += $3 }
    END { row("total (library)", before, after); row("benches/", benches_before, benches_after) }'
