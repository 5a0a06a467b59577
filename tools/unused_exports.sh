#!/usr/bin/env bash
# Report every `val` declared in lib/**/*.mli that no source file outside
# its own module (the .ml/.mli pair) names, searching lib/, bin/, test/,
# perfbench/ and examples/. Exits 1 if there is any; there is no allowlist.
# Run from anywhere: bash tools/unused_exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."
dirs=(lib bin test perfbench examples)
unused=0
while IFS= read -r mli; do
  base=${mli%.mli}
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    if ! grep -rlw --include='*.ml' --include='*.mli' -e "$v" "${dirs[@]}" \
      | grep -qvx -e "$base.ml" -e "$base.mli"; then
      echo "unused export: $mli: val $v"
      unused=$((unused + 1))
    fi
  done
done < <(find lib -name '*.mli' | sort)
echo "unused-exports: $unused"
[ "$unused" -eq 0 ]
