#!/usr/bin/env bash
# A/A: run the full benchmark twice on this commit and fail unless every
# end-to-end metric agrees within its own bound, and the simulated
# statistics, digests and exact counts agree exactly.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --aa "$@"
