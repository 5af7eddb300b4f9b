#!/usr/bin/env bash
# Grep-lint: library crates must not grow new panic-capable call sites.
#
# The engine's robustness contract (DESIGN.md §7) is "typed error, never a
# panic": panics are reserved for broken internal invariants, and even
# those are caught at the facade (`Error::Panicked`). This lint counts
# panic-capable constructs (`panic!`, `.unwrap()`, `.expect(`,
# `unreachable!`, `todo!`, `unimplemented!`) in non-test library code and
# fails if a file exceeds its allowlisted budget.
#
# The allowlist below records the *invariant-checked* sites that remain —
# every one is an `expect`/`unreachable!` whose message names the local
# invariant that makes it dead code (e.g. "checked by caller"). Lowering a
# budget is always fine; raising one needs a justification in review.
#
# Excluded: `#[cfg(test)]` modules (by convention at the bottom of a
# file), `src/bin/` binaries (their top-level error handling is tested by
# tests/cli.rs), and the bench/testkit harness crates.

set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='panic!\(|\.unwrap\(\)|\.expect\(|unreachable!\(|todo!\(|unimplemented!\('

declare -A ALLOW=(
  # Desugar/rename/lift/lower: shape checks immediately precede the access.
  [crates/frontend/src/desugar.rs]=4
  [crates/frontend/src/rename.rs]=3
  [crates/frontend/src/lift.rs]=1
  [crates/frontend/src/lower.rs]=2
  # Specializer: arity/shape checked by the caller on the same path.
  # Syntax: shape checks just before the access, and the worker-thread
  # spawn.
  [crates/syntax/src/cs.rs]=1
  [crates/syntax/src/stack.rs]=1
  # Assembler fixups only ever point at jump instructions.
  [crates/vm/src/asm.rs]=1
  # Normalizer: `triv` is only called on trivial expressions.
  [crates/anf/src/normalize.rs]=1
  # Workload library (crates/langs/src/*.rs — embedded interpreters and
  # the grammar front end): ZERO budget. The grammar module parses
  # user-supplied text into a specializable workload, so every defect —
  # read errors, malformed rules, left recursion, LL(1) conflicts — must
  # surface as a typed GrammarError; the embedded interpreter constants
  # degrade to `()` on the (test-covered) impossible parse failure
  # instead of expecting.
  # Serving layer (crates/server/src/*.rs — admission, breaker, cache,
  # persist, registry, stats, lib): deliberately ZERO budget. The
  # fault-tolerance contract is that overload, deadlines, corrupt
  # snapshots, poisoned locks, and program redefinition races all surface
  # as typed errors/counters; a panic-capable site here would undermine
  # exactly the machinery that contains panics elsewhere. The registry
  # module (versioned programs + invalidation backedges) is explicitly
  # included: a redefinition must never be able to panic a serving thread
  # that is mid-publication for a dead epoch.
  #
  # Observability (crates/obs/src/*.rs — metrics, span, lib): also ZERO
  # budget. Telemetry must never take the process down: poisoned registry
  # locks are entered anyway, the trace ring uses try_with/try_borrow and
  # drops events rather than panicking, and counters saturate at u64::MAX.
  #
  # Network front end (crates/net/src/*.rs — wire, http, json, tenants,
  # server, stats, lib): ZERO budget, and the strictest case of all. This
  # code parses attacker-controlled bytes off a socket; every torn frame,
  # bad checksum, oversized header, malformed JSON body, and unknown
  # token must come back as a typed ProtocolError/HTTP status, and
  # connection handlers additionally run under catch_unwind (counted in
  # t4o_net_worker_panics_total) as a second wall. A panic-capable site
  # here is a remote denial-of-service primitive.
)

fail=0
while IFS= read -r f; do
  # Cut the file at the first `#[cfg(test)]` (test modules sit at the
  # end) and ignore comment lines (doc examples are compiled as tests).
  count=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
    | grep -vE '^\s*//' | grep -cE "$PATTERN" || true)
  allowed=${ALLOW[$f]:-0}
  if ((count > allowed)); then
    echo "forbid_panics: $f: $count panic-capable site(s), budget $allowed:" >&2
    awk '/#\[cfg\(test\)\]/{exit} {printf "%d\t%s\n", FNR, $0}' "$f" \
      | grep -vE '^[0-9]+\s+//' | grep -E "$PATTERN" >&2 || true
    fail=1
  fi
done < <(find crates -path '*/src/*' -name '*.rs' \
  ! -path '*/src/bin/*' ! -path 'crates/bench/*' ! -path 'crates/testkit/*' \
  | sort)

if ((fail)); then
  echo "forbid_panics: FAILED — return a typed error instead, or justify a budget bump." >&2
  exit 1
fi
echo "forbid_panics: ok"
