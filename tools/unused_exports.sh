#!/usr/bin/env bash
# Report every `val` declared in lib/**/*.mli that no source file outside
# its own module (the .ml/.mli pair) names, searching lib/, bin/, test/,
# perfbench/ and examples/. Exits 1 if there is any; there is no allowlist.
# Also lists every export that only files under test/ name, with their
# count: candidates for a test that drives a public path instead, or for
# deletion. That count may fall but never rise: the script also exits 1
# when it is above TEST_ONLY_CEILING. Lower the ceiling when it falls.
# Run from anywhere: bash tools/unused_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."
dirs=(lib bin test perfbench examples)
TEST_ONLY_CEILING=75
unused=0
test_only=0
while IFS= read -r mli; do
  base=${mli%.mli}
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$v" "${dirs[@]}" \
      | grep -vx -e "$base.ml" -e "$base.mli" || true)
    if [ -z "$users" ]; then
      echo "unused export: $mli: val $v"
      unused=$((unused + 1))
    elif ! grep -qv '^test/' <<<"$users"; then
      echo "test-only export: $mli: val $v"
      test_only=$((test_only + 1))
    fi
  done
done < <(find lib -name '*.mli' | sort)
echo "test-only-exports: $test_only (ceiling $TEST_ONLY_CEILING)"
echo "unused-exports: $unused"
if [ "$test_only" -gt "$TEST_ONLY_CEILING" ]; then
  echo "test-only exports rose above the ceiling of $TEST_ONLY_CEILING" >&2
fi
[ "$unused" -eq 0 ] && [ "$test_only" -le "$TEST_ONLY_CEILING" ]
