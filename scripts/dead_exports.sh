#!/usr/bin/env bash
# Dead-export gate: list every `val` declared in lib/**/*.mli whose name,
# as a whole word, appears in no other OCaml source under lib, bin,
# bench, test or examples (its own .ml does not count), and every
# optional argument `?name:` declared there that no other such source
# passes as `~name` or `?name`; exit 1 when either list is not empty.
# Run from anywhere in a checkout:
#
#   bash scripts/dead_exports.sh
#
# Such a value is either dead (delete it) or private to its module
# (drop it from the .mli); such an argument is a constant.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
dead=0
while IFS= read -r mli; do
  ml="${mli%.mli}.ml"
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    users=$(grep -rlw --include='*.ml' --include='*.mli' -- "$v" lib bin bench test examples || true)
    if ! grep -qvx -e "$mli" -e "$ml" -e '' <<< "$users"; then
      echo "$mli: val $v"
      dead=$((dead + 1))
    fi
  done
  for a in $(grep -o "?[a-z_][A-Za-z0-9_']*:" "$mli" | tr -d '?:' | sort -u); do
    users=$(grep -rlE --include='*.ml' --include='*.mli' -- "[~?]$a\b" lib bin bench test examples || true)
    if ! grep -qvx -e "$mli" -e "$ml" -e '' <<< "$users"; then
      echo "$mli: ?$a"
      dead=$((dead + 1))
    fi
  done
done < <(find lib -name '*.mli' | sort)
if [ "$dead" -gt 0 ]; then
  echo "$dead exported value(s) or optional argument(s) used nowhere outside their own module" >&2
  exit 1
fi
