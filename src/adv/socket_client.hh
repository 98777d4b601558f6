/**
 * @file
 * Blocking text-protocol client for the allocation service's socket
 * front-end: the one client that in-tree tools use to speak the
 * protocol (the adversary fleet, ref_adversary and ref_bomb).
 *
 * One ServiceClient is one TCP connection speaking text lines.
 * Commands go out as svc::formatCommand renders them, so doubles
 * reach the server as the exact bits the caller computed.
 *
 * A text reply block has no terminator, so roundTrip() serves
 * single-reply-line commands only, and fairnessCsv() handles the
 * unbounded METRICS fairness block by pipelining a QUERY sentinel
 * behind it.
 */

#ifndef REF_ADV_SOCKET_CLIENT_HH
#define REF_ADV_SOCKET_CLIENT_HH

#include <string>
#include <vector>

#include "svc/protocol.hh"

namespace ref::adv {

/** One blocking client connection. */
class ServiceClient
{
  public:
    /** Connect to "addr:port" (numeric IPv4). Throws FatalError on
     *  connect failure. */
    explicit ServiceClient(const std::string &addrPort);
    ~ServiceClient();
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Commands sent over this connection. */
    std::uint64_t commandsSent() const { return commands_; }

    /**
     * Execute one command whose reply is a single line (ADMIT,
     * UPDATE, DEPART, COHORT, TICK, QUERY <name>); returns the line
     * without its newline ("OK ..." / "SHARE ..." / "ERR ...").
     * Throws FatalError when the server goes away mid-reply.
     */
    std::string roundTrip(const svc::Command &command);

    /** @name Split halves of roundTrip, for interleaving commands
     *  ACROSS connections (send on every connection first, then
     *  collect every reply — the fleet's re-report barrier) or for
     *  pipelining on one. One thread may send while another reads
     *  replies; neither half is safe to call from two threads. */
    ///@{
    void send(const svc::Command &command);
    /** One reply line, without its newline. */
    std::string readReply();
    ///@}

    /**
     * Pipeline several single-reply-line commands: send them all,
     * then read the replies in order. Cuts the admit/label prologue
     * from 2N round trips to one flush at any fleet size.
     */
    std::vector<std::string>
    roundTripAll(const std::vector<svc::Command> &commands);

    /**
     * METRICS fairness: the per-epoch fairness series as CSV. The
     * block has no terminator, so a QUERY for @p sentinelAgent
     * (which must be live) is pipelined behind it and the block ends
     * at the sentinel's SHARE reply.
     */
    std::string fairnessCsv(const std::string &sentinelAgent);

  private:
    int fd_ = -1;
    std::uint64_t commands_ = 0;
    std::string buffer_;       //!< Receive buffer.
    std::size_t offset_ = 0;   //!< Consumed prefix of buffer_.
    bool fill();
    bool readLine(std::string &line);
};

} // namespace ref::adv

#endif // REF_ADV_SOCKET_CLIENT_HH
