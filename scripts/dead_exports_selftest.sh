#!/usr/bin/env bash
# Self-test of the dead-export gate (scripts/dead_exports.sh), run on a
# temporary copy of lib, bin, bench, test and examples:
#
#   1. a canary `val` exported by Rng and named nowhere else must fail
#      the gate, by name, although a test file defines an unrelated
#      function of the same name;
#   2. one qualified use of it, `Scotch_util.Rng.<canary>`, must clear
#      the gate again.
#
# Exits 1 when either step goes the wrong way.  Run from anywhere in a
# checkout:
#
#   bash scripts/dead_exports_selftest.sh
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/scripts"
cp "$root/scripts/dead_exports.sh" "$tmp/scripts/"
for d in lib bin bench test examples; do cp -R "$root/$d" "$tmp/$d"; done

canary=dead_export_canary
printf '\nval %s : int\n' "$canary" >> "$tmp/lib/util/rng.mli"
printf '\nlet %s = 0\n' "$canary" >> "$tmp/lib/util/rng.ml"
printf 'let %s () = ()\n' "$canary" > "$tmp/test/canary_user.ml"

if out=$(bash "$tmp/scripts/dead_exports.sh" 2>&1); then
  echo "dead_exports.sh passed an exported value that nothing uses" >&2
  exit 1
fi
if ! grep -qx "lib/util/rng.mli: val $canary" <<< "$out"; then
  echo "dead_exports.sh failed without naming the canary:" >&2
  echo "$out" >&2
  exit 1
fi

printf 'let () = ignore Scotch_util.Rng.%s\n' "$canary" >> "$tmp/test/canary_user.ml"
if ! out=$(bash "$tmp/scripts/dead_exports.sh" 2>&1); then
  echo "dead_exports.sh failed on a value with a qualified use:" >&2
  echo "$out" >&2
  exit 1
fi
echo "dead_exports.sh self-test passed"
