#include "serve/cache.hh"

#include <cstring>

namespace ladm
{
namespace serve
{

// --- DecisionCache ----------------------------------------------------------

DecisionCache::DecisionCache(int shards)
    : shards_(static_cast<size_t>(shards < 1 ? 1 : shards))
{
}

DecisionCache::Shard &
DecisionCache::shardFor(const DecisionKey &key) const
{
    return shards_[DecisionKeyHash{}(key) % shards_.size()];
}

const std::string *
DecisionCache::find(const DecisionKey &key) const
{
    Shard &s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    const auto it = s.map.find(key);
    return it == s.map.end() ? nullptr : &it->second;
}

bool
DecisionCache::put(const DecisionKey &key, std::string_view encoded)
{
    std::string frame = encodeFrame(
        MsgType::Decision, decisionReply(encoded, false, true));
    Shard &s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    return s.map.emplace(key, std::move(frame)).second;
}

size_t
DecisionCache::size() const
{
    size_t n = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        n += s.map.size();
    }
    return n;
}

// --- DecisionJournal --------------------------------------------------------

size_t
DecisionJournal::open(
    const std::string &path,
    const std::function<void(const DecisionKey &, const std::string &)>
        &sink)
{
    return log_.open(path, LogKind::Decision, [&](std::string_view rec) {
        DecisionKey key;
        if (!sink || rec.size() < sizeof key)
            return;
        std::memcpy(&key, rec.data(), sizeof key);
        sink(key, std::string(rec.substr(sizeof key)));
    });
}

void
DecisionJournal::append(const DecisionKey &key, const std::string &encoded)
{
    std::string rec(reinterpret_cast<const char *>(&key), sizeof key);
    rec += encoded;
    log_.append(rec);
}

} // namespace serve
} // namespace ladm
