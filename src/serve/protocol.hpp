/**
 * @file
 * Wire protocol of the qz-serve alignment service.
 *
 * The service (src/serve/server.hpp) talks to its worker processes
 * over anonymous pipes using length-prefixed frames: a 4-byte
 * little-endian payload length followed by one JSON document. The
 * framing layer here is deliberately dumb — it knows nothing about
 * requests or workers — so it can be unit-tested through a bare
 * pipe(2) and reused by any future transport.
 *
 * Above the framing sit the two message types: ServeRequest (one
 * evaluation cell — a registry workload plus a catalog dataset name,
 * inline sequence pairs, or an on-disk read-store range; see
 * docs/STORE.md) and ServeResponse (the RunResult, or
 * a structured failure). Both serialize through the in-repo JSON
 * layer. runRequestInProcess() is the single execution path shared by
 * the worker loop and the clients' --serve round-trip checks, which
 * is what makes "served results are byte-identical to an in-process
 * run" a testable invariant rather than a hope.
 */
#ifndef QUETZAL_SERVE_PROTOCOL_HPP
#define QUETZAL_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algos/faults.hpp"
#include "algos/runner.hpp"
#include "common/json.hpp"
#include "genomics/sequence.hpp"
#include "genomics/store.hpp"

namespace quetzal::serve {

/**
 * Hard ceiling on one frame's payload. A torn or hostile length
 * prefix must fail loudly instead of looking like a 4 GB allocation.
 */
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Write one frame (length prefix + payload) to @p fd, riding out
 * EINTR and short writes. False when the peer is gone (EPIPE after
 * a worker death) or the payload exceeds kMaxFrameBytes.
 */
bool writeFrame(int fd, std::string_view payload);

/** Outcome of one blocking readFrame() call. */
enum class FrameRead
{
    Frame, //!< @p payload holds one complete frame
    Eof,   //!< clean end of stream at a frame boundary
    Error, //!< torn frame, oversized length, or read error
};

/**
 * Blocking read of one frame from @p fd (the worker side of the
 * pipe, where there is nothing else to wait on). EOF mid-frame is an
 * Error, not an Eof: the writer died mid-message.
 */
FrameRead readFrame(int fd, std::string &payload);

/**
 * Incremental frame decoder for the parent's nonblocking reads:
 * feed() whatever bytes poll() surfaced, then drain complete frames
 * with next(). Bytes of a partial frame are buffered across calls.
 */
class FrameDecoder
{
  public:
    /** Append @p count raw bytes from the stream. */
    void feed(const char *data, std::size_t count);

    /**
     * Extract the next complete frame into @p payload. False when
     * the buffer holds only a partial frame (or the stream is
     * corrupt — check corrupt()).
     */
    bool next(std::string &payload);

    /** True after a length prefix exceeded kMaxFrameBytes. */
    bool corrupt() const { return corrupt_; }

    /** Bytes buffered but not yet returned (partial frame). */
    std::size_t pending() const { return buffer_.size(); }

  private:
    std::string buffer_;
    bool corrupt_ = false;
};

/**
 * One alignment request: a registry workload against a named catalog
 * dataset (makeDataset(dataset, scale)), inline pairs, or a range of
 * an indexed on-disk read store (store/storeFrom/storeTo; workers
 * stream the range at bounded memory and verify a store's checksum
 * once per process per file identity). @c attempt is owned by the
 * dispatching service — it counts deliveries of this request to a
 * worker, and is what the fault-injection gate in the worker compares
 * against FaultInjection::times, so a crash injected "once" fires on
 * the first delivery and not on the post-respawn retry.
 */
struct ServeRequest
{
    std::uint64_t id = 0;
    unsigned attempt = 1;
    std::string workload; //!< registry display name, e.g. "WFA"
    std::string dataset;  //!< catalog name; optional with inline pairs
    double scale = 1.0;
    std::string variant = "qzc"; //!< base|vec|qz|qzc
    std::uint64_t maxLen = 0;    //!< 0 = unlimited
    std::int64_t ssThreshold = 0;
    bool protein = false;
    std::vector<genomics::SequencePair> pairs; //!< inline payload
    std::string store; //!< read-store path; exclusive with the above
    std::size_t storeFrom = 0; //!< first store pair (global index)
    std::size_t storeTo = genomics::kStoreEnd; //!< one past the last
};

std::string toJson(const ServeRequest &request);
std::optional<ServeRequest> requestFromJson(const JsonValue &json);

/** What one response means. */
enum class ResponseStatus
{
    Ok,         //!< result holds the RunResult
    Error,      //!< kind/message describe the terminal failure
    Overloaded, //!< shed at admission: queue over its bound
    Shutdown,   //!< shed during graceful drain: never dispatched
};

std::string_view responseStatusName(ResponseStatus status);
std::optional<ResponseStatus>
responseStatusFromName(std::string_view name);

/** One response, matched to its request by id. */
struct ServeResponse
{
    std::uint64_t id = 0;
    ResponseStatus status = ResponseStatus::Ok;
    unsigned attempts = 1; //!< deliveries the service made in total
    std::optional<algos::RunResult> result; //!< set when Ok
    algos::FailureKind kind = algos::FailureKind::Unknown;
    std::string message;
};

std::string toJson(const ServeResponse &response);
std::optional<ServeResponse> responseFromJson(const JsonValue &json);

/**
 * Materialize the dataset a request names (via the workload's
 * catalog), carries inline, or addresses as a store range. Fatal when
 * it does none of these. Store-backed requests normally stream
 * through runRequestInProcess() instead; this materializing fallback
 * exists for callers that need a concrete PairDataset.
 */
genomics::PairDataset datasetFor(const ServeRequest &request);

/** The RunOptions a request encodes. */
algos::RunOptions optionsFor(const ServeRequest &request);

/**
 * Execute @p request on this process's simulated core — the worker's
 * work function, and the reference half of every --serve round-trip
 * check. Cells are pure functions of their identity, so two calls in
 * two processes produce bitwise-identical RunResults.
 */
algos::RunResult runRequestInProcess(const ServeRequest &request);

} // namespace quetzal::serve

#endif // QUETZAL_SERVE_PROTOCOL_HPP
