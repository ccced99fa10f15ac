#!/bin/sh
# Run a script twice and require byte-identical results.
#
#   sh twice.sh NAME TOOL... -- SCRIPT [CHECK]
#
# SCRIPT runs under `sh -e` in each of the fresh directories NAME/a and
# NAME/b, its stdout, stderr and exit status captured to the files
# `stdout`, `stderr` and `status` there.  Each TOOL (the path of an
# executable) is on PATH under its basename less `.exe`.  The gate
# fails unless
#   - `diff -r NAME/a NAME/b` is empty: every file SCRIPT wrote, its
#     output and its exit status are identical across the two runs;
#   - SCRIPT exited 0;
#   - CHECK, when given, exits 0 under `sh -e` in NAME/a (NAME/b is
#     reachable as ../b).
# Both scripts may use `exits N CMD...`, which fails unless CMD exits
# with status exactly N.  NAME/a is kept for inspection; its log and
# CHECK's are printed only when the gate fails.
set -eu
name=$1
shift
rm -rf "$name"
mkdir -p "$name/bin" "$name/a" "$name/b"
while [ "$1" != -- ]; do
  case $1 in
  /*) tool=$1 ;;
  *) tool=$PWD/$1 ;;
  esac
  ln -s "$tool" "$name/bin/$(basename "$1" .exe)"
  shift
done
shift
PATH=$PWD/$name/bin:$PATH
export PATH

lib='exits() {
  want=$1; shift; got=0
  "$@" || got=$?
  [ "$got" = "$want" ] || { echo "exit $got, expected $want: $*" >&2; return 1; }
}
'

fail() {
  echo "determinism gate $name: $1" >&2
  cat "$name/log" >&2
  exit 1
}

for side in a b; do
  (
    cd "$name/$side"
    code=0
    sh -ec "$lib$1" >stdout 2>stderr || code=$?
    echo "$code" >status
  )
done

diff -r "$name/a" "$name/b" >"$name/log" || fail "the two runs differ"
code=$(cat "$name/a/status")
[ "$code" = 0 ] || { cat "$name/a/stderr" >"$name/log"; fail "exit $code"; }
if [ $# -ge 2 ]; then
  (cd "$name/a" && sh -ec "$lib$2") >"$name/log" 2>&1 || fail "check failed"
fi
