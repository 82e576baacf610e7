#!/usr/bin/env bash
# Repo-specific lint gates that rustc/clippy do not express, run by the
# CI lint job next to rustfmt and clippy. Four rules:
#
# 1. No `.unwrap()` / `.expect(` in the server's session/drain paths
#    (crates/server/src/server.rs and state.rs, non-test code). A panic
#    in a session thread kills that connection's drain loop; every error
#    there must flow back to the client as a `Response::Error` or
#    structured diagnostic frame instead. Test modules (everything after
#    a `#[cfg(test)]` line) are exempt.
#
# 2. No `Instant::now` lexically inside a `measure_peak(...)` argument in
#    the bench crate. The counting allocator tracks every allocation in
#    the window; a timing call in the measured closure would charge its
#    formatting/syscall allocations to the workload under measurement.
#    Time around the window, allocate inside it — never both at once.
#
# 3. No `available_parallelism(` call on a non-comment line of
#    crates/core/src/engine/ outside rules.rs. Worker, shard and thread
#    counts are decided once there, for the engine that executes them and
#    the analyzer that predicts them; a second call site is a forked rule
#    the analyzer no longer sees.
#
# 4. No `thread::scope` or `.spawn(` on a non-comment line of
#    crates/core/src/engine/ outside rules.rs. Every row-sharded stage and
#    the leaf fan-out run on the one order-preserving runner there; a
#    second spawn site is a forked runner with its own chunking and join
#    order.
#
# Exits nonzero with one line per violation.
set -u

cd "$(dirname "$0")/.."

status=0

# --- rule 1: panicking calls in the server session/drain paths --------
for file in crates/server/src/server.rs crates/server/src/state.rs; do
    violations=$(awk '
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /\.unwrap\(\)|\.expect\(/ {
            printf "%s:%d: panicking call in a session/drain path: %s\n", FILENAME, FNR, $0
        }
    ' "$file")
    if [ -n "$violations" ]; then
        printf '%s\n' "$violations"
        status=1
    fi
done

# --- rule 2: Instant::now inside a measure_peak window ----------------
# Lexical scan: once `measure_peak(` opens, count parentheses until the
# call closes; any `Instant::now` seen while the call is open is a
# violation. Handles multi-line closures; does not try to parse strings
# or comments (neither occurs in measurement windows today — keep it
# that way).
violations=$(find crates/bench/src -name '*.rs' -print | sort | xargs awk '
    {
        line = $0
        if (depth == 0) {
            idx = index(line, "measure_peak(")
            if (idx > 0) {
                # Start counting at the opening parenthesis of the call.
                line = substr(line, idx + length("measure_peak"))
            } else {
                next
            }
        }
        if (depth > 0 && index($0, "Instant::now") > 0) {
            printf "%s:%d: Instant::now inside a measure_peak window: %s\n", FILENAME, FNR, $0
        }
        n = split(line, chars, "")
        for (i = 1; i <= n; i++) {
            if (chars[i] == "(") depth++
            else if (chars[i] == ")") {
                depth--
                if (depth == 0) {
                    # The call closed mid-line; a second window opening
                    # on the same line would be missed — none do.
                    break
                }
            }
        }
    }
' 2>/dev/null)
if [ -n "$violations" ]; then
    printf '%s\n' "$violations"
    status=1
fi

# --- rule 3: machine parallelism is read in engine/rules.rs only -----
violations=$(find crates/core/src/engine -name '*.rs' ! -name rules.rs -print | sort | xargs awk '
    /^[[:space:]]*\/\// { next }
    /available_parallelism\(/ {
        printf "%s:%d: parallelism read outside engine/rules.rs: %s\n", FILENAME, FNR, $0
    }
')
if [ -n "$violations" ]; then
    printf '%s\n' "$violations"
    status=1
fi

# --- rule 4: the engine spawns threads in engine/rules.rs only -------
violations=$(find crates/core/src/engine -name '*.rs' ! -name rules.rs -print | sort | xargs awk '
    /^[[:space:]]*\/\// { next }
    /thread::scope|\.spawn\(/ {
        printf "%s:%d: thread spawn outside engine/rules.rs: %s\n", FILENAME, FNR, $0
    }
')
if [ -n "$violations" ]; then
    printf '%s\n' "$violations"
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "lint.sh: violations found" >&2
else
    echo "lint.sh: ok"
fi
exit "$status"
