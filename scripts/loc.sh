#!/bin/sh
# Non-test lines under crates/: each .rs file counts up to its first `#[cfg(test)]`;
# `benches/` directories are reported apart. Run from anywhere: `scripts/loc.sh`.
cd "$(dirname "$0")/.." || exit 1
count() { xargs -r awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'; }
total=0
for c in $(find crates -name Cargo.toml | sed 's|/Cargo.toml||' | sort); do
    n=$(find "$c" -name '*.rs' -not -path '*/benches/*' | count)
    printf '%-26s %6d\n' "$c" "$n"
    total=$((total + n))
done
printf '%-26s %6d\n' "total (library)" "$total"
printf '%-26s %6d\n' "benches/" "$(find crates -path '*/benches/*.rs' | count)"
