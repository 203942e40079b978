/**
 * @file
 * The unit of work of the placement-advisor service: one placement
 * request (kernel IR text + topology + launch geometry + allocation
 * sizes) and the decision the paper's pipeline produces for it
 * (classify affine index expressions -> pick placement + scheduling +
 * CRB policy, Fig. 5).
 *
 * A decision is a *pure function* of its cache key:
 *
 *   key = (requestIrHash(request), configFingerprint(topology))
 *
 * requestIrHash covers everything the pipeline reads from the request
 * (source text, dims, argument sizes); the FNV-1a config fingerprint
 * from snapshot/ covers everything it reads from the machine. That
 * purity is what makes the decision cache and its crash-safe journal
 * sound: a journal entry replayed after kill -9 is bit-identical to a
 * cold recompute of the same key (asserted in tests/test_serve.cc).
 *
 * heuristicDecision() is the degraded mode: a closed-form answer --
 * page round-robin interleave + the grid-shape scheduler default,
 * RTWICE -- computed without parsing or classifying anything, in the
 * spirit of PAPERS.md's fast analytic locality models. It is what the
 * server falls back to when the classifier cannot meet its budget, and
 * it is never cached or journaled (it is not the pipeline's answer).
 */

#ifndef LADM_SERVE_DECISION_HH
#define LADM_SERVE_DECISION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "kernel/kernel_desc.hh"
#include "serve/wire.hh"

namespace ladm
{
namespace serve
{

/** One placement query, as carried by a Place frame. */
struct PlacementRequest
{
    /** Kernel IR text in the compiler/parser.hh language. */
    std::string kernelSource;
    /**
     * Topology preset name ("multi-gpu-4x4", "monolithic-256",
     * "dgx-4"); empty uses the server's configured default.
     */
    std::string topology;
    LaunchDims dims;
    /** Bytes behind each kernel pointer argument (tie-break input). */
    std::vector<uint64_t> argBytes;
    /**
     * Relative deadline in microseconds; 0 adopts the server default.
     * The client propagates the same value into its socket timeout.
     */
    uint32_t deadlineUs = 0;

    void encode(ByteWriter &w) const;
    static PlacementRequest decode(ByteReader &r);
};

/** Cache/journal key of a decision. */
struct DecisionKey
{
    uint64_t irHash = 0;      ///< requestIrHash of the request
    uint64_t fingerprint = 0; ///< snapshot::configFingerprint of the cfg

    bool
    operator==(const DecisionKey &o) const
    {
        return irHash == o.irHash && fingerprint == o.fingerprint;
    }
};

struct DecisionKeyHash
{
    size_t
    operator()(const DecisionKey &k) const
    {
        // Fibonacci mix of the two halves; both are already hashes.
        return static_cast<size_t>(
            (k.irHash ^ (k.fingerprint * 0x9e3779b97f4a7c15ULL)));
    }
};

/** The pipeline's answer for one key. */
struct PlacementDecision
{
    DecisionKey key;
    std::string scheduler;       ///< TbScheduler::name() of the winner
    uint8_t policy = 0;          ///< 0 = RTWICE, 1 = RONCE
    std::string schedulerReason; ///< why this scheduler won the tie-break

    struct ArgDecision
    {
        /** Table II row (1-7) of the argument's summary classification;
         *  0 when the kernel never dereferences the argument. */
        uint8_t tableRow = 0;
        /** Placement description ("A [RowVert]: column interleave..."). */
        std::string note;
    };
    std::vector<ArgDecision> args;

    /** Canonical byte encoding; the cache/journal/bit-identity unit. */
    std::string encode() const;
    static PlacementDecision decode(std::string_view bytes);
};

/**
 * Payload of a Decision frame:
 *
 *   u8 degraded | u8 cached | u32 length | encoded decision
 */
std::string decisionReply(std::string_view encoded, bool degraded,
                          bool cached);

/** FNV-1a over every request field the decision pipeline reads. */
uint64_t requestIrHash(const PlacementRequest &req);

/**
 * Resolve a topology preset name (empty -> @p fallback).
 * @throws SimError(Usage, ErrCode::BadRequest) for unknown names.
 */
SystemConfig resolveTopology(const std::string &name,
                             const std::string &fallback);

/**
 * Run the full pipeline: parse the IR, classify every access, pick
 * scheduler + placement + CRB policy via LadmRuntime::prepareLaunch.
 * Deterministic for a given (request, cfg).
 * @throws SimError on malformed IR (ParseError) or inconsistent
 *         request (BadUsage/BadRequest).
 */
PlacementDecision computeDecision(const PlacementRequest &req,
                                  const SystemConfig &cfg);

/**
 * Closed-form degraded-mode answer (see file comment). Never throws,
 * never parses; cost is O(numArgs) string building.
 */
PlacementDecision heuristicDecision(const PlacementRequest &req,
                                    const SystemConfig &cfg);

} // namespace serve
} // namespace ladm

#endif // LADM_SERVE_DECISION_HH
