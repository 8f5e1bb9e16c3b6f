#!/usr/bin/env bash
# Count the out-of-line vmp:: functions that no non-test binary keeps.
#
#   tools/dead_code_probe.sh [BUILD_DIR] [--list]
#
# Builds the tree in BUILD_DIR (default: build-probe/ at the repo root) as
# Release with every function in its own section (-ffunction-sections
# -fdata-sections), and links the non-test binaries — the examples, the
# benches, vmp_explore and vmp_inspect — with -Wl,--gc-sections, so each
# keeps only what is reachable from its main.  perfbench/ is built the same
# way under BUILD_DIR/perfbench.  A vmp:: function that the module libraries
# (libvmp_*.a) emit out of line and that none of those binaries keeps has no
# caller outside the tests.  Prints that count; --list also prints the
# functions, demangled, one a line.
#
# The count overcounts a little: a function inlined into every caller in
# its own file is kept in no binary, though it has callers.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
build=$repo/build-probe
list=0
for arg in "$@"; do
  case $arg in
    --list) list=1 ;;
    -*) echo "usage: $0 [BUILD_DIR] [--list]" >&2; exit 2 ;;
    *) build=$arg ;;
  esac
done

flags=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
names() { for f in "$@"; do basename "$f" .cpp; done; }
examples=$(names "$repo"/examples/*.cpp)
benches=$(names $(ls "$repo"/bench/*.cpp | grep -v '/common\.cpp$'))

cmake -S "$repo" -B "$build" "${flags[@]}" > /dev/null
# shellcheck disable=SC2086
cmake --build "$build" -j "$(nproc)" --target $examples $benches \
  vmp_explore_tool vmp_inspect_tool > /dev/null
cmake -S "$repo/perfbench" -B "$build/perfbench" "${flags[@]}" > /dev/null
cmake --build "$build/perfbench" -j "$(nproc)" --target perfbench > /dev/null

binaries=("$build"/tools/vmp_explore "$build"/tools/vmp_inspect
          "$build"/perfbench/perfbench)
for name in $examples; do binaries+=("$build/examples/$name"); done
for name in $benches; do binaries+=("$build/bench/$name"); done

# The demangled vmp:: functions (text symbols, local or weak included) that
# the given objects define, one a line, sorted.  A compiler clone of a
# function (its split-off cold part, a specialised copy) counts as the
# function.
functions() {
  nm -C --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ {
           sub(/^[^ ]* [^ ]* /, "")
           while (sub(/ \[clone [^]]*\]$/, "")) {}
           print
         }' |
    grep '^vmp::' | sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
functions "$build"/src/*/libvmp_*.a > "$tmp/emitted"
functions "${binaries[@]}" > "$tmp/kept"
comm -23 "$tmp/emitted" "$tmp/kept" > "$tmp/unkept"

if [ "$list" = 1 ]; then cat "$tmp/unkept"; fi
echo "dead_code_probe: $(wc -l < "$tmp/unkept") of $(wc -l < "$tmp/emitted")" \
     "out-of-line vmp:: functions are kept in none of" \
     "${#binaries[@]} non-test binaries"
