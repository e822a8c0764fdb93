/**
 * @file
 * In-memory span recorder for the traced run, written out as Chrome
 * trace_event JSON (chrome://tracing and Perfetto load it as is).
 *
 * Spans are recorded from the benchmark's own code around its calls
 * into the library's public functions: compile, rollout and each of its
 * steps, rolloutBatch, submit and result arrival, plus counter samples
 * of the reuse cache. Each span carries an id and the id of the span
 * that caused it; the spans of one served request share its request id.
 * When tracing is off every entry point returns after one branch.
 */
#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Recording on/off; the traced run toggles it round by round. */
    bool enabled() const { return enabled_ && active_; }
    void setActive(bool active) { active_ = active; }

    /** A fresh span id (never 0; 0 means "no parent"). */
    uint64_t newId();

    /**
     * Record a finished span and return its id: `id` when given (one
     * taken from newId() before the span's children were recorded),
     * else a fresh one.
     */
    uint64_t span(const char *name, Clock::time_point begin,
                  Clock::time_point end, uint64_t parent = 0,
                  uint64_t request = 0, uint64_t id = 0);

    /** Record a counter sample. */
    void counter(const char *name, Clock::time_point at, double value);

    size_t spanCount() const;

    /** Write everything as trace_event JSON; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Event
    {
        const char *name = "";
        char phase = 'X';
        double tsUs = 0.0;
        double durUs = 0.0;
        uint64_t id = 0;
        uint64_t parent = 0;
        uint64_t request = 0;
        double value = 0.0;
        uint32_t tid = 0;
    };

    double usSinceOrigin(Clock::time_point t) const;

    const bool enabled_;
    bool active_ = true;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Event> events_; //!< guarded by mu_
    uint64_t nextId_ = 1;       //!< guarded by mu_
};

/** RAII span: records [construction, destruction) when tracing is on. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, uint64_t parent = 0,
               uint64_t request = 0)
        : t_(t), name_(name), parent_(parent), request_(request),
          begin_(t.enabled() ? Clock::now() : Clock::time_point{})
    {
    }
    ~ScopedSpan()
    {
        if (t_.enabled())
            t_.span(name_, begin_, Clock::now(), parent_, request_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    const char *name_;
    uint64_t parent_;
    uint64_t request_;
    Clock::time_point begin_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
