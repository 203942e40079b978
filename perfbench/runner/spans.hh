/**
 * @file
 * In-memory span log for the traced run.
 *
 * A span brackets one call into a layer: its name, start and end on the
 * steady clock, the span that was open when it began (its parent), and
 * the cell or request id it belongs to. A recorder is owned by one
 * thread. Spans stay in memory and are written out once, when the run
 * ends, so writing costs nothing inside the timed work.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

class SpanRecorder
{
  public:
    /**
     * @param section "main" for the workload's own operations, "probe"
     *                for the fixed probe that covers layers the workload
     *                never reaches
     * @param stream  unique per recorder within a run; span ids and
     *                parents are local to it
     */
    SpanRecorder(std::string section, int stream)
        : section_(std::move(section)), stream_(stream)
    {
        spans_.reserve(1 << 16);
    }

    /** RAII span; a null recorder makes it a no-op. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *name, uint64_t op)
            : rec_(rec), id_(rec ? rec->begin(name, op) : -1)
        {
        }
        ~Scope()
        {
            if (rec_)
                rec_->end(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Rename before closing (a reply decides hit vs miss). */
        void
        rename(const char *name)
        {
            if (rec_)
                rec_->spans_[static_cast<size_t>(id_)].name = name;
        }

      private:
        SpanRecorder *rec_;
        int64_t id_;
    };

    /**
     * One tab-separated line per span:
     * section, stream, id, parent (-1 = root), name, op, start_ns, end_ns.
     */
    void
    write(std::ostream &os) const
    {
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << section_ << '\t' << stream_ << '\t' << i << '\t'
               << s.parent << '\t' << s.name << '\t' << s.op << '\t'
               << s.startNs << '\t' << s.endNs << '\n';
        }
    }

  private:
    struct Span
    {
        const char *name; ///< string literal
        int64_t parent;
        uint64_t op;
        int64_t startNs;
        int64_t endNs;
    };

    static int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    int64_t
    begin(const char *name, uint64_t op)
    {
        const int64_t id = static_cast<int64_t>(spans_.size());
        spans_.push_back(
            {name, open_.empty() ? -1 : open_.back(), op, nowNs(), 0});
        open_.push_back(id);
        return id;
    }

    void
    end(int64_t id)
    {
        spans_[static_cast<size_t>(id)].endNs = nowNs();
        open_.pop_back();
    }

    std::string section_;
    int stream_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_; ///< ids of the spans still open
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
