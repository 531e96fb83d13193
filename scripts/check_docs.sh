#!/usr/bin/env bash
# Docs verifier: the documentation must not rot.
#
#   scripts/check_docs.sh          # check README.md + docs/*.md
#
# Four checks, all hard failures:
#   1. Every fenced ```cpp block is extracted into a generated TU (one per
#      markdown file; each block becomes the body of its own function,
#      #include lines hoisted to the top) and compiled with
#      `g++ -std=c++20 -fsyntax-only -Isrc`. Snippets are therefore
#      written in *function-body style*: statements and local declarations,
#      no top-level definitions.
#   2. Every intra-repo markdown link target (relative [text](path) links,
#      #anchors stripped) must exist on disk.
#   3. Every backticked `comm::<name>` in prose and tables must be declared
#      by src/runtime/comm.hpp. The compiler decides: each name becomes a
#      using-declaration in a generated TU that includes only that header,
#      so a name surviving only in a comment there still fails.
#   4. Every backticked `RobinHoodMap::<name>`, `MsQueue::<name>`,
#      `DistStack::<name>` or `InterlockedHashTable::<name>` in prose and
#      tables must be a member that the type's header in src/ds/ declares.
#      The compiler decides again: each name becomes a using-declaration in
#      a class derived from the type, so a member surviving only in a
#      comment fails. Private members count as declared.
#
# CI runs this on every push/PR (the `docs` job); run it locally before
# touching docs/.
set -euo pipefail

cd "$(dirname "$0")/.."

CXX="${CXX:-g++}"
OUT_DIR="${PGASNB_DOCS_BUILD:-build-docs}"
mkdir -p "$OUT_DIR"

DOCS=(README.md docs/*.md)
status=0

# --- 1. snippet compilation --------------------------------------------------

extract_snippets() {
  # stdin: markdown; stdout: a TU with each ```cpp block wrapped in its own
  # function, #include lines hoisted. $1: sanitized doc name for symbols.
  awk -v doc="$1" '
    BEGIN { n = 0; includes = ""; bodies = "" }
    /^```cpp[ \t]*$/ && !in_block { in_block = 1; n += 1; first_line = NR + 1; body = ""; next }
    /^```[ \t]*$/ && in_block {
      in_block = 0
      bodies = bodies sprintf("// snippet %d (line %d)\ninline void %s_snippet_%d() {\n%s}\n\n", n, first_line, doc, n, body)
      next
    }
    in_block {
      if ($0 ~ /^[ \t]*#include/) includes = includes $0 "\n"
      else body = body $0 "\n"
    }
    END {
      printf "// generated by scripts/check_docs.sh -- do not edit\n"
      printf "#include \"pgasnb.hpp\"\n%s\n%s", includes, bodies
    }
  '
}

for md in "${DOCS[@]}"; do
  doc_sym=$(basename "$md" .md | tr -c 'a-zA-Z0-9' '_')
  tu="$OUT_DIR/snippets_${doc_sym}.cpp"
  extract_snippets "doc_${doc_sym}" < "$md" > "$tu"
  if ! grep -q "_snippet_" "$tu"; then
    continue  # no cpp blocks in this doc
  fi
  echo "check_docs: compiling snippets from $md"
  if ! "$CXX" -std=c++20 -fsyntax-only -Isrc "$tu"; then
    echo "check_docs: SNIPPET COMPILE FAILURE in $md (see $tu)" >&2
    status=1
  fi
done

# --- 2. intra-repo link check ------------------------------------------------

strip_fenced_blocks() {
  # Code blocks are full of `](...)`-shaped lambda captures; links only
  # count in prose.
  awk '/^```/ { fence = !fence; next } !fence' "$1"
}

for md in "${DOCS[@]}"; do
  dir=$(dirname "$md")
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|"#"*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      echo "check_docs: BROKEN LINK in $md -> $target" >&2
      status=1
    fi
  done < <(strip_fenced_blocks "$md" | grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//')
done

# --- 3. comm:: names in prose ----------------------------------------------

# Sub-namespaces (comm::detail) cannot be named by a using-declaration;
# accept the ones the header opens in code (comment lines start with //).
comm_namespaces=$(grep -oE '^[[:space:]]*namespace [A-Za-z_][A-Za-z0-9_]*' \
  src/runtime/comm.hpp | awk '{ print $2 }' | sort -u)
names=$(for md in "${DOCS[@]}"; do strip_fenced_blocks "$md"; done \
  | grep -oE '`[^`]*`' | grep -oE 'comm::[A-Za-z_][A-Za-z0-9_]*' \
  | sed 's/^comm:://' | sort -u | grep -vxF -e "$comm_namespaces" || true)
names_tu="$OUT_DIR/comm_names.cpp"
{
  echo "// generated by scripts/check_docs.sh -- do not edit"
  echo "#include \"runtime/comm.hpp\""
  echo "namespace check_docs_comm_names {"
  for name in $names; do echo "using pgasnb::comm::$name;"; done
  echo "}"
} > "$names_tu"
echo "check_docs: checking comm:: names against src/runtime/comm.hpp"
if ! "$CXX" -std=c++20 -fsyntax-only -Isrc "$names_tu" > "$OUT_DIR/comm_names.log" 2>&1; then
  missing=$(grep -oE "'[A-Za-z_][A-Za-z0-9_]*' has not been declared in 'pgasnb::comm'" \
    "$OUT_DIR/comm_names.log" | cut -d"'" -f2 | sort -u || true)
  [[ -z "$missing" ]] && cat "$OUT_DIR/comm_names.log" >&2
  for name in $missing; do
    where=$(grep -lE "comm::${name}([^A-Za-z0-9_]|\$)" "${DOCS[@]}" | tr '\n' ' ')
    echo "check_docs: STALE NAME comm::$name in ${where}-- not declared in src/runtime/comm.hpp" >&2
  done
  status=1
fi

# --- 4. data-structure member names in prose --------------------------------

declare -A ds_header=(
  [RobinHoodMap]=ds/robinhood_map.hpp
  [MsQueue]=ds/ms_queue.hpp
  [DistStack]=ds/dist_stack.hpp
  [InterlockedHashTable]=ds/interlocked_hash_table.hpp
)
ds_refs=$(for md in "${DOCS[@]}"; do strip_fenced_blocks "$md"; done \
  | grep -oE '`[^`]*`' \
  | grep -oE '(RobinHoodMap|MsQueue|DistStack|InterlockedHashTable)(<[^>`]*>)?::[A-Za-z_][A-Za-z0-9_]*' \
  | sed -E 's/<[^>]*>//' | sort -u || true)
ds_tu="$OUT_DIR/ds_names.cpp"
{
  echo "// generated by scripts/check_docs.sh -- do not edit"
  for type in "${!ds_header[@]}"; do echo "#include \"${ds_header[$type]}\""; done
  echo "namespace check_docs_ds_names {"
  for type in "${!ds_header[@]}"; do
    echo "using $type = pgasnb::$type<std::uint64_t>;"
  done
  n=0
  for ref in $ds_refs; do
    n=$((n + 1))
    # One probe per line; the trailing comment names the reference.
    echo "struct Probe$n : ${ref%%::*} { using $ref; };  // $ref"
  done
  echo "}"
} > "$ds_tu"
echo "check_docs: checking data-structure member names against src/ds/ headers"
if ! "$CXX" -std=c++20 -fsyntax-only -Isrc "$ds_tu" > "$OUT_DIR/ds_names.log" 2>&1; then
  # Private members are declared too; any other error is the TU's own.
  if grep -E 'error:' "$OUT_DIR/ds_names.log" \
      | grep -vqE "has not been declared in|is (private|protected) within this context"; then
    cat "$OUT_DIR/ds_names.log" >&2
    status=1
  fi
  for line in $(grep -E 'has not been declared in' "$OUT_DIR/ds_names.log" \
      | grep -oE "^[^:]*ds_names\.cpp:[0-9]+" | cut -d: -f2 | sort -un); do
    ref=$(sed -n "${line}p" "$ds_tu" | sed 's|.*// ||')
    type=${ref%%::*}
    where=$(grep -lE "${type}(<[^>\`]*>)?::${ref##*::}([^A-Za-z0-9_]|\$)" "${DOCS[@]}" \
      | tr '\n' ' ')
    echo "check_docs: STALE NAME $ref in ${where}-- not declared in src/${ds_header[$type]}" >&2
    status=1
  done
fi

if [[ "$status" -eq 0 ]]; then
  echo "check_docs: OK (snippets compile, links resolve, comm:: and data-structure names declared)"
fi
exit "$status"
