#!/bin/sh
# Size of the code a deletion pass is judged by. Per crate: non-test Rust
# lines, i.e. the lines of every src/**/*.rs before the file's test
# module (the first `#[cfg(test)]` that is followed by `mod name {`; a
# `#[cfg(test)]` on a lone item or on a `mod tests;` declaration in the
# middle of a file does not end the count), files named tests*.rs left
# out. Then their total, the `core + sql + server` sum ROADMAP.md tracks
# against its target, every *.rs line in the workspace (tests, benches
# and examples included; third_party and target not), and the number of
# fields in `Options` and in `ServerConfig`.
#
# usage: scripts/loc.sh [checkout]     (default: this checkout)
#        scripts/loc.sh <parent-checkout> <change-checkout>
#
# With two checkouts every line reads `parent -> change (delta)`: what a
# deletion pass states in its PR.
set -eu
if [ $# -eq 2 ]; then
    parent=$("$0" "$1")
    "$0" "$2" | while IFS= read -r line; do
        label=${line%% [ 0-9]*}
        now=${line##* }
        was=$(printf '%s\n' "$parent" | grep -F "$label " | head -n 1)
        was=${was##* }
        printf '%-22s %6s -> %6d (%+d)\n' "$label" "${was:--}" "$now" "$((now - ${was:-0}))"
    done
    exit
fi
cd "${1:-$(dirname "$0")/..}"

non_test_lines() {
    find "$1" -name '*.rs' ! -name 'tests*.rs' -print0 | sort -z |
        xargs -0 awk '
            FNR == 1 { test = 0; attr = 0 }
            attr && /^ *(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/ { test = 1; n-- }
            { attr = /^ *#\[cfg\(test\)\]$/ }
            !test { n++ }
            END { print n + 0 }'
}

total=0
engine=0
for src in crates/*/src src; do
    n=$(non_test_lines "$src")
    total=$((total + n))
    case $src in crates/core/src | crates/sql/src | crates/server/src) engine=$((engine + n)) ;; esac
    printf '%-22s %6d\n' "${src%/src}" "$n"
done
printf '%-22s %6d\n' 'non-test total' "$total"
printf '%-22s %6d\n' 'core + sql + server' "$engine"
printf '%-22s %6d\n' 'all *.rs' \
    "$(find crates src tests examples -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l)"
fields() {
    awk -v s="pub struct $1 " '
        index($0, s) == 1 { on = 1 }
        on && /^    pub / { n++ }
        on && /^}/ { exit }
        END { print n + 0 }' "$2"
}
printf '%-22s %6d\n' 'Options fields' "$(fields Options crates/core/src/options.rs)"
printf '%-22s %6d\n' 'ServerConfig fields' "$(fields ServerConfig crates/server/src/net.rs)"
