//! Flow-level network simulator with max-min fair sharing.
//!
//! The packet-level simulator (`choreo-netsim`) is faithful but too slow to
//! replay hundreds of multi-gigabyte application runs (Fig. 10 of the
//! paper). This crate trades packet effects for speed: each flow receives
//! its **max-min fair share** of every resource along its path — the
//! idealized steady state of competing bulk TCP connections, which is
//! exactly the sharing model the paper assumes when it estimates how
//! connections interact (§3.2: "TCP divides the bottleneck rate equally
//! between bulk connections in cloud networks").
//!
//! Resources are directed link capacities, per-host loopbacks (co-located
//! VM traffic) and per-VM **hose** caps (§4.3/4.4: EC2 and Rackspace
//! rate-limit each VM's egress). A routed hop's resource id is its packed
//! `link << 1 | dir` value, `DirectedHop::index` ([`hop_resource`] is that,
//! as a `u32`), so a path turns into solver resources without a table. The
//! engine advances time between discrete
//! events — flow arrivals, completions, scheduled stops and ON–OFF
//! background toggles — recomputing the allocation where a changed flow
//! set or capacity is next read ([`fairshare`]), and integrates delivered
//! bytes exactly between events.
//!
//! # The incremental fair-share core
//!
//! Reallocation is the simulator's hot path: the greedy placer and every
//! figure-regeneration bench drive thousands of what-if scenarios through
//! it. Instead of rebuilding flow descriptions per call, the engine keeps
//! the active flow set in a persistent CSR-style [`FlowArena`]:
//!
//! * flow → resources in one flat pool addressed by `(start, len)`, with
//!   slots and pool blocks recycled through free lists;
//! * a mirrored reverse index resource → flows, so freezing a bottleneck
//!   touches exactly the flows that cross it (no `contains` scans);
//! * a [`MaxMinSolver`] whose indexed min-heap and scratch buffers persist
//!   across solves — steady-state reallocation allocates nothing.
//!
//! The allocation is a deterministic function of the *set* of live flows
//! (freeze rounds use order-insensitive arithmetic), so incremental
//! maintenance and a from-scratch solve agree bit-for-bit; the workspace
//! property suite checks exactly that, against [`max_min_rates`], a
//! log-free linear-scan filling that shares no code with the solver. See
//! [`fairshare`] for the full invariant list.
//!
//! # Batched what-if evaluation
//!
//! Placement quality hinges on scoring many candidate flows against the
//! same network state, and a solve per candidate is the scaling
//! bottleneck. [`MaxMinSolver::probe`] removes it: every candidate rated
//! between two solves reads *one* logged solve, bit-identical to a full
//! solve per candidate. The probe is separable per resource. Until it
//! freezes a candidate consumes nothing — it only adds one user to each
//! resource of its path — so the first logged round resource `r` would
//! saturate by with one more user, and the share it would saturate at,
//! depend on `r`'s capacity, users and logged events alone, not on the
//! candidate. That pair is `r`'s bottleneck record; the candidate freezes
//! at the earliest round among its resources' records (a resource that
//! hits later still has a larger share at that round, so it cannot be
//! the minimum there), at the smallest share recorded for that round.
//!
//! Cost model, per solve:
//!
//! * **per distinct resource** — `O(events on r · log rounds)`: between
//!   two of `r`'s own logged events its key cannot move, so each such
//!   segment of the log asks for the first logged key at or above it. The
//!   keys themselves may dip an ulp under their predecessor, but their
//!   prefix maxima never do, and bisecting those finds the same round
//!   unless the segment opens inside a dip, where the keys are compared in
//!   order instead. Read through the per-resource event lists every logged
//!   solve keeps current, and kept until the next solve stamps the log;
//! * **per walk** — [`FlowSim`] rates a host pair on its path 0, which the
//!   route table splits into a lead hop, the walk between the two hosts'
//!   ToRs and a tail hop (`RouteTable::path0_parts`). Lexicographic `min`
//!   is associative, so a walk's records are folded once and the fold
//!   kept alongside them;
//! * **per candidate** — `O(1)`: the lead and tail records, the hose's and
//!   the walk's fold. No route is unranked per pair.
//!
//! A batch of `k(k − 1)` host pairs reads the log for `2k` access
//! directions and the fabric links of the walks between their racks, not
//! `k(k − 1)` times. [`FlowSim::probe_rates`] rides on it — the one probe
//! call; a lone candidate is a batch of one — which also makes probing
//! observably side-effect-free: no arena round-trip.
//!
//! # Warm-started delta solves: the `SolveLog` lifecycle
//!
//! [`MaxMinSolver`] owns one **persistent** freeze-round log. It is
//! recorded once and from then on edited in place; knowing what it holds
//! tells you what the next solve costs.
//!
//! What is stored, and keyed by what:
//!
//! * **by position** (freeze order) — each round's bottleneck key, level
//!   and id. These three arrays are the only thing a warm solve rewrites
//!   wholesale (`O(rounds)`, bulk copies).
//! * **by round id** — stable while the round stays in the log: its
//!   position, and its ranges in two append-only pools holding the
//!   per-resource frozen counts and the frozen slots. A round a warm
//!   solve drops leaves its ranges behind; both pools are compacted in
//!   place at the end of a solve once garbage outweighs live entries, and
//!   dropped ids are recycled only after the walk that dropped them.
//! * **by resource** — the `(round id, delta)` events of the rounds that
//!   froze flows crossing it, in position order, plus their sum (the
//!   flows on the resource the log accounts for).
//! * **by slot** — the round that froze the slot's flow.
//! * **probe records** — per resource, the bottleneck record above,
//!   tagged with the epoch of the log it was read from. Every solve bumps
//!   the log's epoch when it stamps the log current, which is all the
//!   invalidation there is: no clearing pass, a record is re-read when a
//!   probe next names its resource. The keys' prefix maxima are rebuilt
//!   by the first probe of an epoch, and [`FlowSim`]'s per-walk folds
//!   carry the same epoch tag.
//!
//! The states:
//!
//! 1. **Cold** — after construction, the only time there is no log
//!    (probes panic, a warm solve falls back to a full logged solve).
//! 2. **Logged** — after [`MaxMinSolver::solve_logged`], the one cold
//!    entry point: the warm walk of state 3 over a forgotten log, with
//!    every resource perturbed, so every round runs live and is written
//!    to the log, indexes included, as it freezes. The log is stamped
//!    with the arena's generation. A probe reads one record per resource of
//!    its path, searching the log (`O(events on the resource · log
//!    rounds)`) only for those no probe has named since the stamp. The stamp must
//!    match the arena exactly ([`MaxMinSolver::log_matches`]) — any
//!    mutation staled it.
//! 3. **Warm** — after [`MaxMinSolver::solve_warm`]: the solver walked
//!    the log against the mutated arena and edited it where the
//!    mutations reached. The arena's dirty resource set seeds a
//!    perturbation set; a resource gets a live `(slack, users)` only
//!    when it joins, from its capacity, its arena user count and its own
//!    logged events so far. Rounds with an unperturbed bottleneck are
//!    **carried** — one key compare and an `O(1)` check each, a delta
//!    applied only for the perturbed resources they touch, their flows'
//!    rates left where the previous solve wrote them; rounds with a
//!    perturbed bottleneck are **dropped** and their flows re-freeze in
//!    **live** rounds with the full cold arithmetic. Cost model:
//!    `O(rounds)` compares plus work on the perturbation closure —
//!    bit-identical to a cold `solve_logged` and to the
//!    [`max_min_rates`] oracle. Event lists are edited for
//!    perturbed resources only, so the log is again *logged*, indexes
//!    included, with a fresh generation stamp and record epoch: probes
//!    work at once and the next churn event chains warm. [`SolveStats::replayed_rounds`]
//!    counts the rounds carried, [`SolveStats::live_rounds`] the rounds
//!    run live.
//!
//! Staleness rules: the generation stamp makes `probe` refuse a log recorded before any arena mutation; `solve_warm` instead
//! *consumes* the mutations (via [`FlowArena::dirty_resources`], whose
//! dirty window it closes) — which is why it takes the arena mutably and
//! why at most one warm-chaining solver should drive a given arena. Two
//! release-mode guards turn a log that does not describe its arena into
//! a panic: every carried round checks its bottleneck's user count, and
//! the walk ends on a conservation check (the log freezes exactly the
//! arena's flows). Because carried rounds do not rewrite rates, the rate
//! buffer passed to `solve_warm` is part of the solver's state: it must
//! be the one the previous solve filled (vacant slots may be zeroed).
//! [`FlowSim`]'s event loop keeps its log hot this way: flow starts,
//! stops and ON–OFF toggles mutate the arena freely, and the next
//! reallocation warm-starts from the last one's log instead of
//! invalidating it; the greedy placer's commit path (place → start
//! transfers → re-solve) rides the same chain, reusing the probe-era log
//! it just rated candidates against.
//!
//! # Key lifetime & flow-record recycling
//!
//! *In `engine/records.rs`.* [`FlowSim`] names flows by [`FlowKey`] — a
//! packed record index plus a generation stamp. A key is live from
//! [`FlowSim::start_flow`] until the flow's record is **released**: once
//! a flow has retired
//! (completed or stopped — [`FlowStatus::Done`]), the caller harvests
//! whatever it still needs ([`FlowSim::delivered_bytes`],
//! [`FlowSim::completion_time`], …) and calls [`FlowSim::release_flow`],
//! which bumps the record's generation and pushes the slot onto a free
//! list for the next arrival. From then on the key — and every copy of
//! it — is *stale*, and any use panics instead of silently reading the
//! successor flow's data. Callers that never release keep the old
//! append-only behavior, with an identical event trajectory (ECMP path
//! choice is seeded by a monotone flow sequence number, not the record
//! index), but their record table grows with all-time arrivals; with
//! release at retirement it plateaus at the peak concurrent flow count,
//! which is what lets a long simulation hold thousands of times more
//! flow history than memory would otherwise allow. The scheduler layers
//! above (`choreo-online`) release at every departure point.
//!
//! # Where a live flow's rate and bytes live, and what an advance costs
//!
//! *The columns are in `engine/records.rs`, the advance in `engine/run.rs`.*
//! A flow *record* (tag, status, resource list, generation stamp,
//! remaining byte budget) is addressed by its [`FlowKey`] and outlives
//! the flow. A *live* flow's hot state is not in the record: it sits in
//! columns indexed by the flow's arena slot. The solver's output buffer
//! is the one owner of the allocated rate — [`FlowSim::rate_bps`] reads
//! `rates[slot]`, nothing copies rates back into records after a solve —
//! and a parallel `delivered` column holds the byte counter, settled
//! into the record when the flow leaves the arena. Vacant slots hold
//! `0.0` in both. A dense list names the slots of the byte-bounded
//! flows, the only ones that can complete on their own.
//!
//! So advancing time over `n` live slots of which `b` are bounded costs
//! one streaming `delivered[slot] += rates[slot] · secs / 8` pass —
//! `O(n)`, branch-free, no record touched — plus `O(b)` for the bounded
//! flows' budgets, the next-completion search and completion detection.
//! An online placement service runs only unbounded flows (`b = 0`): an
//! event there costs what it changes (the warm solve over its dirty
//! window) plus the streaming add, not a walk over every flow in the
//! cluster. Simultaneous completions retire in ascending slot order.
//!
//! # When a solve runs: where a rate is read
//!
//! *In `engine/run.rs`.* A mutation — a flow starting or stopping, a
//! capacity change — only marks its resources in the arena's dirty
//! window, and a non-empty window is the one "needs a solve" marker.
//! The solve runs when something reads a rate: [`FlowSim::rate_bps`], a
//! probe, [`FlowSim::check_rates_against_cold`], or the event loop.
//! [`FlowSim::run_until`] reads rates in two places and solves just
//! before each: the next-completion search, while a byte-bounded flow
//! is live, and the integration of an interval of positive length.
//! Retiring spent flows and firing heap events read no
//! rate, and integrating a zero-length interval adds nothing, so an
//! advance that does not move the clock over unbounded flows solves
//! nothing: however many mutations land at one instant — a switch failing
//! all its links at once, a tenant and the forced migration its failure
//! sets off — they share the one warm solve their first reader pays for.
//! That solve is bit-identical to a cold solve, as every solve is, so
//! *when* a solve runs never changes a trajectory; the workspace property
//! suite drives an engine beside a twin that solves after every call and
//! checks exactly that. Running the clock backwards is a panic.
//!
//! # Runtime network events: capacity as a first-class input
//!
//! *In `engine/capacity.rs`.* Link capacities are an input the caller may
//! move at any time. [`FlowSim::set_capacity`] changes one solver
//! resource at runtime, and the link-level helpers express the paper's drift/failure vocabulary:
//! [`FlowSim::degrade_link`] (fractional cut), [`FlowSim::fail_link`]
//! (cut to [`FAILED_LINK_BPS`], effectively zero but solver-legal) and
//! [`FlowSim::recover_link`] (restore the construction-time spec). The
//! lifecycle is *inject → dirty-window re-solve*: a capacity change marks
//! its resource in the arena's existing dirty window
//! ([`FlowArena::touch_resource`]), so the next reallocation treats it
//! as a perturbation and re-solves **bit-identical** to a cold solve at
//! the new capacities. No special event type, no trajectory fork:
//! capacity churn composes with flow churn in the same window, which is
//! what keeps fault-laden runs deterministic across repeats. The layers
//! above (`choreo-online`'s network-event step, `choreo-service`'s
//! `InjectNetworkEvent` request) drive exactly these entry points.
//!
//! Entry point: [`FlowSim`]. [`max_min_rates`] is the one-shot, log-free
//! oracle the test suites compare against.

pub mod engine;
pub mod fairshare;

pub use engine::{hop_resource, FlowKey, FlowSim, FlowStatus, HoseId, SolveStats, FAILED_LINK_BPS};
pub use fairshare::{max_min_rates, FlowArena, FlowSlot, MaxMinSolver};
