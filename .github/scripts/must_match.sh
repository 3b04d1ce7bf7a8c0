# Sourced by the CI steps that bump a test run's case count or bound.
# `cargo test` passes when its filter matches no test, so a test renamed
# away from a filter would silently leave its bumped run. `must_match
# ARGS…` fails the step unless `cargo test --release -q ARGS… --list`
# still names at least one test.
must_match() { cargo test --release -q "$@" --list | grep -q ': test$' || { echo "no test matches: $*"; exit 1; }; }
