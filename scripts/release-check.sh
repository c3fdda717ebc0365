#!/usr/bin/env bash
# Release checks for an installed qgrand: the console script, every pinned stream and
# stdout digest, and the peak memory of validate-square at order 4096. It works in a
# fresh temporary directory, so nothing imports qgrand from a checkout unless the
# caller's PYTHONPATH says so.
#
#   scripts/release-check.sh                 # the installed `qgrand` console script
#   PYTHONPATH="$PWD/src" scripts/release-check.sh python -m qgrand
set -e
[ $# -gt 0 ] || set -- qgrand
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

"$@" make-square 16 --seed 1 --out sq.txt && "$@" validate-square sq.txt
# the script and `python -m qgrand` take one entry path, so their streams agree
script=$("$@" gen sq.txt --shift-const 7 --length 65536 --format hex | sha256sum)
module=$(python -m qgrand gen sq.txt --shift-const 7 --length 65536 --format hex | sha256sum)
test "$script" = "$module"
# `gen --format symbols` at order 16 under both shift modes, and from an order-300 file,
# where no byte map exists and each block is read as int32 symbols (digests taken before
# small orders gathered phase 3 through a cached index and encoded symbols from bytes)
digest=$("$@" gen sq.txt --shift-const 7 --format symbols --length 100000 | sha256sum)
test "$digest" = "92bdab5d3dcb149cc46eefb46e02a5fa283616b5b1207879ec296edeec5cb45a  -"
digest=$("$@" gen sq.txt --shift-var 3 9 --format symbols --length 100000 | sha256sum)
test "$digest" = "d10621e173e15aaab45c1792242f725b28d068c8ef2102580a30ce0c5c7f3fba  -"
"$@" make-square 300 --seed 1 --out sq300.txt
digest=$("$@" gen sq300.txt --shift-var 3 9 --format symbols --length 100000 | sha256sum)
test "$digest" = "788f9deb0f6562b98908ec388b796da49fac66502550d44bea4d9467b04cfc51  -"
# 0 or 3, a pass or a flag; 300 kB is enough for the rank tests, which need 256000 bytes
"$@" test --self-gen 'qg:order=16,seed=1,const=7' --length 300000 || test $? -eq 3
# KISS's wide lanes through the console script, on both numpy lines
"$@" compare 'qg:order=16,seed=1,const=7' kiss --size 300000 || test $? -eq 3
# compare tests its first source in a forked child: 1000 bytes is too few for every test,
# so both columns come back insufficient, exit 4 with 8 insufficient machine lines
code=0
out=$("$@" compare 'qg:order=16,seed=1,const=7' kiss --size 1000) || code=$?
test "$code" -eq 4
test "$(printf '%s\n' "$out" | grep -c 'insufficient:')" -eq 8
# test runs frequency and perm5 in a forked child and the rank tests in its own process:
# 1000 bytes is too few for all four, so exit 4 with 4 insufficient machine lines
code=0
out=$("$@" test --self-gen 'qg:order=16,seed=1,const=7' --length 1000) || code=$?
test "$code" -eq 4
test "$(printf '%s\n' "$out" | grep -c 'insufficient:')" -eq 4
# test forks once the rank tests' 5,120,000 bytes exist, and its child makes the rest:
# pin a stdout whose stream runs past that point (digest from one process, one stream)
digest=$("$@" test --self-gen 'qg:order=256,seed=1,const=7' --length 6000000 | sha256sum)
test "$digest" = "8a64b1567d30b28758f28790f7daf3a71d4d4d6062d2c5d23fbf13740a9f2ab9  -"
# a pipe is read whole before the fork, a spec's stream is made in chunks across it: the
# same stream gives the same statistics and p-values (the source labels differ); an
# order-16 stream fails the battery, exit 3 both ways
piped=$("$@" gen sq.txt --shift-const 7 --length 1000000 --stdout | "$@" test /dev/stdin) || test $? -eq 3
spec=$("$@" test --self-gen 'qg:file=sq.txt,const=7' --length 1000000) || test $? -eq 3
test "$(printf '%s\n' "$piped" | cut -s -f1,3-5)" = "$(printf '%s\n' "$spec" | cut -s -f1,3-5)"
test "$(printf '%s\n' "$spec" | cut -s -f1,3-5 | wc -l)" -eq 4
# a qg spec is always byte-mapped, so an order above 256 is refused before its square
# is built: exit 1 and one stderr line, on both numpy lines
code=0
err=$("$@" test --self-gen 'qg:order=8192,seed=1,const=7' 2>&1 >/dev/null) || code=$?
test "$code" -eq 1
test "$err" = "qgrand test: byte output needs order <= 256, got 8192"
# phase 3 copies 256-byte rows in bands, a path chosen by the row stride: pin an
# order-256 stream on both numpy lines (digest from the whole-matrix copy)
"$@" make-square 256 --seed 1 --out sq256.txt
digest=$("$@" gen sq256.txt --shift-var 3 9 --length 1048576 --stdout | sha256sum)
test "$digest" = "2237958bf186dcf862155c49a51c7668be83b14874fed772c30ff50bb44119b9  -"
# numpy reads each row of that file; with CRLF line ends each row is stripped and read
# by numpy too: both must give the same stream on both numpy lines
sed 's/$/\r/' sq256.txt > sq256crlf.txt
digest=$("$@" gen sq256crlf.txt --shift-var 3 9 --length 1048576 --stdout | sha256sum)
test "$digest" = "2237958bf186dcf862155c49a51c7668be83b14874fed772c30ff50bb44119b9  -"
# a leading zero on one symbol: its row's digit count differs from its values', so
# int() reads that row token by token and must give the same stream
sed '2s/^/0/' sq256.txt > sq256zero.txt
digest=$("$@" gen sq256zero.txt --shift-var 3 9 --length 1048576 --stdout | sha256sum)
test "$digest" = "2237958bf186dcf862155c49a51c7668be83b14874fed772c30ff50bb44119b9  -"
# the battery's statistics and 6-decimal p-values are part of the reproducibility
# contract: pin compare's whole stdout on both numpy lines
digest=$("$@" compare 'qg:order=256,seed=1,const=7' kiss --size 1000000 | sha256sum)
test "$digest" = "d35143c6e78eaafa849208644c266de2cd936d3a0d1ed45fb8793f6c0ed4d199  -"
# the square's file is written and read one row at a time: pin an order-1000 file
# (a uint16 table) on both numpy lines, then read it back
"$@" make-square 1000 --seed 1 --out sq1000.txt
digest=$(sha256sum < sq1000.txt)
test "$digest" = "47e8bb3b7a8cc5b797361ead1517a341edacd7dac820a8600323c1eef34822b7  -"
"$@" validate-square sq1000.txt
# validate-square at order 4096 (a 79 MB file) peaks under 300 MiB, measured from a
# spawning process so that only the command's own RSS counts: the valid file; a copy
# with row 1's first symbol set to its second, which must be rejected; and a CRLF copy.
# numpy reads each row of all three
"$@" make-square 4096 --seed 1 --out sq4096.txt
sed '2s/^\([0-9]*\) \([0-9]*\)/\2 \2/' sq4096.txt > sq4096repeat.txt
sed 's/$/\r/' sq4096.txt > sq4096crlf.txt
for file_and_exit in "sq4096.txt 0" "sq4096repeat.txt 1" "sq4096crlf.txt 0"; do
  python -c 'import os, shutil, sys; *cmd, want = sys.argv[1:]; pid = os.posix_spawn(shutil.which(cmd[0]), cmd, os.environ); _, status, usage = os.wait4(pid, 0); code = os.waitstatus_to_exitcode(status); print(" ".join(cmd[-2:]) + ": exit", code, "peak", usage.ru_maxrss // 1024, "MiB"); sys.exit(code != int(want) or usage.ru_maxrss > 300 * 1024)' "$@" validate-square $file_and_exit
done
