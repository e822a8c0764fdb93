#include "tracer.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

uint32_t
currentTid()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF);
}

} // namespace

double
Tracer::usSinceOrigin(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

uint64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_++;
}

uint64_t
Tracer::span(const char *name, Clock::time_point begin, Clock::time_point end,
             uint64_t parent, uint64_t request, uint64_t id)
{
    if (!enabled())
        return 0;
    Event e;
    e.name = name;
    e.phase = 'X';
    e.tsUs = usSinceOrigin(begin);
    e.durUs = std::chrono::duration<double, std::micro>(end - begin).count();
    e.parent = parent;
    e.request = request;
    e.tid = currentTid();
    std::lock_guard<std::mutex> lock(mu_);
    e.id = id ? id : nextId_++;
    events_.push_back(e);
    return e.id;
}

void
Tracer::counter(const char *name, Clock::time_point at, double value)
{
    if (!enabled())
        return;
    Event e;
    e.name = name;
    e.phase = 'C';
    e.tsUs = usSinceOrigin(at);
    e.value = value;
    e.tid = currentTid();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
}

size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        if (e.phase == 'C') {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,"
                         "\"pid\":1,\"tid\":%u,\"args\":{\"value\":%.17g}}",
                         e.name, e.tsUs, e.tid, e.value);
        } else {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                         "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
                         "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                         e.name, e.tsUs, e.durUs, e.tid,
                         static_cast<unsigned long long>(e.id),
                         static_cast<unsigned long long>(e.parent),
                         static_cast<unsigned long long>(e.request));
        }
        std::fputs(i + 1 < events_.size() ? ",\n" : "\n", f);
    }
    std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
