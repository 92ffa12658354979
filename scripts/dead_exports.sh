#!/usr/bin/env bash
# Dead-export gate.  A `val v` declared in lib/**/m.mli, in module M or
# in a submodule `module Sub : sig ... end` (or a functor's result
# signature) inside it, counts as used when some other .ml file under
# lib, bin, bench, test or examples, read without its comments and
# string literals, does one of these:
#
#   - names it `M.v` or `Sub.v`, or `X.v` where the file binds
#     `module X = ...M` (also `let module`);
#   - mentions bare `v` and opens the module: `open ...M`,
#     `let open ...M`, `M.( ... )` or `include ...M`;
#   - passes the module whole, as in `Make (M)` or `(module M)`, which
#     uses every value it exports.
#
# The value's own .ml never counts, and .mli files are never users.
# Values inside `module type ... = sig ... end` are signatures, not
# exports, and are skipped.  Separately, every optional argument
# `?name:` declared in such an .mli must be passed as `~name` or `?name`
# by some other source.  The script lists every value and argument
# that fails and exits 1 when there is one.  Run from anywhere in a
# checkout:
#
#   bash scripts/dead_exports.sh
#
# Such a value is either dead (delete it) or private to its module
# (drop it from the .mli); such an argument is a constant.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
dead=0

read -r -d '' prog <<'AWK' || true
# Drops comments (nested) and string literals from one line; `depth`
# and `instr` carry the lexer state from line to line.
function strip(s,   out, k) {
  out = ""
  while (s != "") {
    if (depth > 0) {
      if (!match(s, /\(\*|\*\)/)) return out
      depth += substr(s, RSTART, 2) == "(*" ? 1 : -1
      s = substr(s, RSTART + 2)
      if (depth == 0) out = out " "
    } else if (instr) {
      if (!match(s, /\\.|"/)) return out
      if (RLENGTH == 1) { instr = 0; out = out " " }
      s = substr(s, RSTART + RLENGTH)
    } else {
      if (!match(s, /\(\*|"|'\\?"'/)) return out s
      out = out substr(s, 1, RSTART - 1) " "
      k = substr(s, RSTART, 1)
      if (k == "(") depth = 1
      else if (k == "\"") instr = 1
      s = substr(s, RSTART + RLENGTH)
    }
  }
  return out
}

function upper(w) { return w ~ /^[A-Z]/ }

function add(k) {
  if (!((k, cur) in seen)) { seen[k, cur] = 1; users[k] = users[k] " " cur }
}

function resolve(m) { return (m in alias) ? alias[m] : m }

# End of one .ml file: record every module.value key it uses.
function flush(   k, m, w, i) {
  for (k in qual) {
    add(k)
    i = index(k, ".")
    m = substr(k, 1, i - 1)
    if (m in alias) add(alias[m] substr(k, i))
  }
  for (m in opened) for (w in bare) add(resolve(m) "." w)
  for (m in whole) add(resolve(m) ".*")
  split("", qual); split("", bare); split("", opened); split("", alias); split("", whole)
}

# One token of a user (.ml) file; p1 p2 p3 are the tokens before it.
function use(t,   lopen, n, p, i, last) {
  if (t == ")" && pend != "" && p2 == "(") whole[pend] = 1
  pend = ""
  if (t ~ /^[()=:]$/) return
  lopen = t ~ /\.[([{]$/
  if (lopen) t = substr(t, 1, length(t) - 2)
  n = split(t, p, ".")
  if (!upper(p[1])) { bare[p[1]] = 1; return }
  for (i = 1; i <= n && upper(p[i]); i++) ;
  if (i <= n) { qual[p[i - 1] "." p[i]] = 1; return }
  last = p[n]
  if (lopen || p1 == "open" || p1 == "include") opened[last] = 1
  else if (p1 == "=" && upper(p2) && p3 == "module") alias[p2] = last
  else if (p1 == "module" && p2 == "(") whole[last] = 1
  else if (p1 == "(") pend = last
}

# One token of an export (.mli) file: tracks sig ... end nesting.
function declare(t) {
  if (t == "module") { mstate = 1; mtype = 0; pending = 0; return }
  if (mstate && t == "type") { mtype = 1; return }
  if (mstate && upper(t)) { pname = t; pmtype = mtype; pending = 1; mstate = 0; return }
  mstate = 0
  if (t == "sig") {
    sp++
    name[sp] = pending ? pname : name[sp - 1]
    skip[sp] = skip[sp - 1] || (pending && pmtype)
    pending = 0
  } else if (t == "end") { if (sp > 0) sp-- }
  else if (t == "val") { vstate = 1; pending = 0; return }
  else if (t ~ /^(type|exception|external|include)$/) pending = 0
  else if (vstate && t ~ /^[a-z_]/ && !skip[sp]) {
    nex++; ex_mod[nex] = name[sp]; ex_val[nex] = t; ex_mli[nex] = FILENAME
    ex_sub[nex] = sp > 0
  }
  vstate = 0
}

FNR == 1 {
  if (ml_open) flush()
  cur = FILENAME; depth = 0; instr = 0; p1 = p2 = p3 = pend = ""
  is_mli = FILENAME ~ /\.mli$/
  ml_open = !is_mli
  if (is_mli) {
    n = split(FILENAME, parts, "/")
    base = parts[n]; sub(/\.mli$/, "", base)
    sp = 0; name[0] = toupper(substr(base, 1, 1)) substr(base, 2); skip[0] = 0
    mstate = pending = vstate = 0
  }
}

{
  s = strip($0)
  while (match(s, /[A-Za-z_][A-Za-z0-9_']*(\.[A-Za-z_][A-Za-z0-9_']*)*(\.[([{])?|[()=:]/)) {
    t = substr(s, RSTART, RLENGTH)
    s = substr(s, RSTART + RLENGTH)
    if (is_mli) declare(t)
    else { use(t); p3 = p2; p2 = p1; p1 = t }
  }
}

function used_elsewhere(k, own,   n, fs, i) {
  n = split(users[k], fs, " ")
  for (i = 1; i <= n; i++) if (fs[i] != own) return 1
  return 0
}

END {
  if (ml_open) flush()
  for (e = 1; e <= nex; e++) {
    own = ex_mli[e]; sub(/\.mli$/, ".ml", own)
    m = ex_mod[e]; v = ex_val[e]
    if (used_elsewhere(m "." v, own) || used_elsewhere(m ".*", own)) continue
    print ex_mli[e] ": val " (ex_sub[e] ? m "." : "") v
  }
}
AWK

# shellcheck disable=SC2046
values=$(awk "$prog" $(find lib -name '*.mli' | sort) \
  $(find lib bin bench test examples -name '*.ml' | sort))
if [ -n "$values" ]; then
  echo "$values"
  dead=$(wc -l <<< "$values")
fi

while IFS= read -r mli; do
  ml="${mli%.mli}.ml"
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
