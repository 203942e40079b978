#!/bin/sh
# Usage: expect_fail.sh PATTERN COMMAND [ARG...]
# Passes when COMMAND exits non-zero and its combined stdout and stderr
# match the grep pattern PATTERN.
pattern=$1
shift
if out=$("$@" 2>&1); then
    printf '%s\n' "$out"
    echo "expect_fail.sh: exit status 0, expected a failure"
    exit 1
fi
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q -e "$pattern"
