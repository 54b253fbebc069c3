/**
 * @file
 * Named cross-CPU latency edges.
 *
 * Every cross-CPU interaction in the simulated machine flows through a
 * small set of mechanisms with *nonzero modelled latency*: IPIs
 * (CostModel::ipiFlight), the 10 GbE wire (Wire::oneWayLatency) and
 * backend worker wakeups. A ShardChannel names one such mechanism and
 * declares its minimum latency; the owning component schedules the
 * far side's work through it.
 *
 * A send is a plain EventQueue::scheduleAt on the world's one queue,
 * plus a model invariant: a message never arrives sooner than its
 * declared latency after the current simulated time. A component that
 * undershoots its own declared latency fails loudly instead of
 * quietly modelling a faster machine.
 */

#ifndef VIRTSIM_SIM_CHANNEL_HH
#define VIRTSIM_SIM_CHANNEL_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * One declared latency edge. Obtained from EventQueue::channel();
 * never constructed directly.
 */
class ShardChannel
{
  public:
    ShardChannel(const ShardChannel &) = delete;
    ShardChannel &operator=(const ShardChannel &) = delete;

    /**
     * Schedule fn at absolute time `when`.
     * @pre when >= now() + latency() — the declared minimum latency
     *      is a contract, checked, not a hint.
     */
    template <typename F>
    void
    send(Cycles when, F &&fn)
    {
        VIRTSIM_ASSERT(when >= q.now() + _latency, "channel '", _name,
                       "' send at ", when, " violates declared latency ",
                       _latency, " from time ", q.now());
        q.scheduleAt(when, std::forward<F>(fn));
    }

    const std::string &name() const { return _name; }

    /** Declared minimum latency. */
    Cycles latency() const { return _latency; }

  private:
    friend class EventQueue;

    ShardChannel(EventQueue &q, std::string name, Cycles latency)
        : q(q), _name(std::move(name)), _latency(latency)
    {
    }

    EventQueue &q;
    std::string _name;
    Cycles _latency;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_CHANNEL_HH
