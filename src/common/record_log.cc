#include "common/record_log.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/serial.hh" // crc32
#include "common/sim_error.hh"

namespace ladm
{

namespace
{

constexpr char kMagic[8] = {'L', 'A', 'D', 'M', 'R', 'L', 'O', 'G'};
/** magic and kind: the bytes that say whose file this is */
constexpr size_t kIdentityBytes = sizeof kMagic + sizeof(uint32_t);
constexpr size_t kRecordHeaderBytes = 2 * sizeof(uint32_t);

[[noreturn]] void
ioError(const std::string &path, const std::string &what,
        ErrCode code = ErrCode::IoError)
{
    throw SimError(SimError::Kind::Io, "record log: " + what,
                   {{"record_log", path, what,
                     "check the path and its filesystem", code}});
}

std::string
errnoText(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

std::string
header(LogKind kind)
{
    const uint32_t fields[2] = {static_cast<uint32_t>(kind), kModelVersion};
    std::string h(kMagic, sizeof kMagic);
    h.append(reinterpret_cast<const char *>(fields), sizeof fields);
    return h;
}

} // namespace

RecordLog::~RecordLog()
{
    close();
}

size_t
RecordLog::open(const std::string &path, LogKind kind,
                const std::function<void(std::string_view)> &sink)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (fd_ >= 0)
            ioError(path, "already open");
    }
    std::ifstream in(path, std::ios::binary); // absent reads as empty
    const std::string image{std::istreambuf_iterator<char>(in), {}};
    if (in.bad())
        ioError(path, "read failed");

    // A file shorter than the header is a torn header when its bytes
    // agree with ours: nothing was committed to it yet.
    const std::string want = header(kind);
    const size_t id = std::min(image.size(), kIdentityBytes);
    if (image.compare(0, id, want, 0, id) != 0)
        ioError(path, "not a record log of this kind (bad magic or kind)",
                ErrCode::JournalCorrupt);

    size_t good = 0, replayed = 0;
    if (image.size() >= kHeaderBytes &&
        image.compare(kIdentityBytes, 4, want, kIdentityBytes, 4) != 0) {
        uint32_t version = 0;
        std::memcpy(&version, image.data() + kIdentityBytes, 4);
        ladm_warn("record log ", path, ": written by model version ",
                  version, ", this build is ", kModelVersion,
                  "; dropping its stale records");
    } else if (image.size() >= kHeaderBytes) {
        good = kHeaderBytes;
        while (image.size() - good >= kRecordHeaderBytes) {
            uint32_t len = 0, crc = 0;
            std::memcpy(&len, image.data() + good, 4);
            std::memcpy(&crc, image.data() + good + 4, 4);
            const size_t body = good + kRecordHeaderBytes;
            if (len > kMaxRecordBytes || image.size() - body < len)
                break; // torn by a kill, or corrupt
            const std::string_view payload(image.data() + body, len);
            if (serial::crc32(payload.data(), len) != crc)
                break; // bit rot or a torn write
            if (sink)
                sink(payload);
            ++replayed;
            good = body + len;
        }
        if (good != image.size()) {
            ladm_warn("record log ", path, ": dropping ",
                      image.size() - good, " torn byte(s) after ",
                      replayed, " valid record(s)");
        }
    }

    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0)
        ioError(path, errnoText("open failed"));
    // Cut the file back to its last good byte; a fresh, torn or stale
    // log starts over from a bare header.
    if ((good != image.size() && ::ftruncate(fd, good) != 0) ||
        (good == 0 && ::write(fd, want.data(), want.size()) !=
                          static_cast<ssize_t>(want.size()))) {
        const std::string what = errnoText("repair failed");
        ::close(fd);
        ioError(path, what);
    }
    std::lock_guard<std::mutex> lk(mu_);
    fd_ = fd;
    path_ = path;
    return replayed;
}

void
RecordLog::append(std::string_view payload)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return;
    ladm_require(payload.size() <= kMaxRecordBytes, "record log ", path_,
                 ": a ", payload.size(), "-byte record is over the limit");
    const uint32_t head[2] = {
        static_cast<uint32_t>(payload.size()),
        serial::crc32(payload.data(), payload.size())};
    std::string rec(reinterpret_cast<const char *>(head), sizeof head);
    rec += payload;
    // One write(2) per record: a crash can tear at most the final
    // record, which open() detects and truncates.
    if (::write(fd_, rec.data(), rec.size()) !=
        static_cast<ssize_t>(rec.size())) {
        ladm_warn("record log ", path_, ": append failed (",
                  std::strerror(errno), "); logging disabled for this run");
        ::close(fd_);
        fd_ = -1;
        return;
    }
}

void
RecordLog::sync()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0)
        ::fdatasync(fd_);
}

void
RecordLog::close()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ >= 0) {
        ::fdatasync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

bool
RecordLog::isOpen() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return fd_ >= 0;
}

} // namespace ladm
