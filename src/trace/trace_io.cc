#include "trace/trace_io.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/logging.hh"

namespace nucache
{

namespace
{

constexpr std::array<char, 8> traceMagic =
    { 'N', 'U', 'T', 'R', 'A', 'C', 'E', '1' };

void
putU64(std::ostream &os, std::uint64_t v)
{
    // Explicit little-endian byte order for portability.
    for (int i = 0; i < 8; ++i)
        os.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        os.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    v = 0;
    for (int i = 0; i < 8; ++i) {
        const int c = is.get();
        if (c == std::istream::traits_type::eof())
            return false;
        v |= static_cast<std::uint64_t>(c & 0xff) << (8 * i);
    }
    return true;
}

bool
getU32(std::istream &is, std::uint32_t &v)
{
    v = 0;
    for (int i = 0; i < 4; ++i) {
        const int c = is.get();
        if (c == std::istream::traits_type::eof())
            return false;
        v |= static_cast<std::uint32_t>(c & 0xff) << (8 * i);
    }
    return true;
}

/** Bytes per serialized record: u64 pc + u64 addr + u32 gap + 4. */
constexpr std::uint64_t recordBytes = 24;

/**
 * @return how many payload bytes remain past the current position, or
 * ~0 when the stream is not seekable (a pipe); seek errors are cleared
 * so the caller's sequential reads continue unaffected.
 */
std::uint64_t
remainingBytes(std::istream &is)
{
    const auto here = is.tellg();
    if (here == std::istream::pos_type(-1)) {
        is.clear();
        return ~std::uint64_t{0};
    }
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || !is) {
        is.clear();
        is.seekg(here);
        return ~std::uint64_t{0};
    }
    return static_cast<std::uint64_t>(end - here);
}

/** Append the formatted message to @p error; @return false. */
template <typename... Args>
bool
parseError(std::string &error, Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    error = os.str();
    return false;
}

bool
parseBinaryTrace(std::istream &is, std::vector<TraceRecord> &records,
                 std::string &error)
{
    std::array<char, 8> magic{};
    is.read(magic.data(), magic.size());
    if (!is || magic != traceMagic)
        return parseError(error,
                          "trace file: bad magic (not a NUTRACE1 file)");

    std::uint64_t count = 0;
    if (!getU64(is, count))
        return parseError(error, "trace file: truncated header");

    // The header count is untrusted input: validate it against the
    // bytes actually present before sizing any allocation, so a
    // corrupt or hostile header cannot demand a multi-gigabyte
    // reserve.  Non-seekable streams (pipes) cannot be measured; cap
    // the up-front reserve and let the vector grow against real data.
    const std::uint64_t remaining = remainingBytes(is);
    if (remaining != ~std::uint64_t{0}) {
        if (count > remaining / recordBytes) {
            return parseError(error, "trace file: header claims ", count,
                              " records but only ", remaining,
                              " bytes follow (",
                              remaining / recordBytes, " records)");
        }
        records.reserve(count);
    } else {
        constexpr std::uint64_t maxBlindReserve = 1u << 20;
        records.reserve(std::min(count, maxBlindReserve));
    }

    for (std::uint64_t i = 0; i < count; ++i) {
        TraceRecord rec;
        std::uint32_t gap = 0;
        if (!getU64(is, rec.pc) || !getU64(is, rec.addr) ||
            !getU32(is, gap)) {
            return parseError(error, "trace file: truncated at record ",
                              i, " of ", count);
        }
        rec.nonMemGap = gap;
        const int w = is.get();
        if (w == std::istream::traits_type::eof())
            return parseError(error, "trace file: truncated at record ",
                              i, " of ", count);
        rec.isWrite = (w != 0);
        is.get();
        is.get();
        is.get();
        records.push_back(rec);
    }
    return true;
}

} // anonymous namespace

void
writeBinaryTrace(std::ostream &os, const std::vector<TraceRecord> &records)
{
    os.write(traceMagic.data(), traceMagic.size());
    putU64(os, records.size());
    for (const auto &rec : records) {
        putU64(os, rec.pc);
        putU64(os, rec.addr);
        putU32(os, rec.nonMemGap);
        os.put(rec.isWrite ? 1 : 0);
        os.put(0);
        os.put(0);
        os.put(0);
    }
    // Report the failure at write time: a silently short capture is
    // worse than no capture, because replay would "work" on it.
    os.flush();
    if (!os)
        fatal("trace write failed after ", records.size(),
              " records (stream error — disk full or closed sink?)");
}

TraceParseResult
tryReadBinaryTrace(std::istream &is)
{
    TraceParseResult out;
    out.ok = parseBinaryTrace(is, out.records, out.error);
    if (!out.ok)
        out.records.clear();
    return out;
}

std::vector<TraceRecord>
readBinaryTrace(std::istream &is)
{
    TraceParseResult out = tryReadBinaryTrace(is);
    if (!out.ok)
        fatal(out.error);
    return std::move(out.records);
}

void
writeTextTrace(std::ostream &os, const std::vector<TraceRecord> &records)
{
    os << "# pc addr gap r|w\n";
    for (const auto &rec : records) {
        os << "0x" << std::hex << rec.pc << " 0x" << rec.addr << std::dec
           << " " << rec.nonMemGap << " " << (rec.isWrite ? 'w' : 'r')
           << "\n";
    }
    os.flush();
    if (!os)
        fatal("trace write failed after ", records.size(),
              " records (stream error — disk full or closed sink?)");
}

TraceParseResult
tryReadTextTrace(std::istream &is)
{
    TraceParseResult out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        TraceRecord rec;
        std::string rw;
        std::uint64_t pc = 0, addr = 0;
        std::uint32_t gap = 0;
        ls >> std::hex >> pc >> addr >> std::dec >> gap >> rw;
        if (ls.fail() || (rw != "r" && rw != "w")) {
            std::ostringstream err;
            err << "text trace: malformed line " << line_no << ": '"
                << line << "'";
            out.error = err.str();
            out.records.clear();
            return out;
        }
        rec.pc = pc;
        rec.addr = addr;
        rec.nonMemGap = gap;
        rec.isWrite = (rw == "w");
        out.records.push_back(rec);
    }
    out.ok = true;
    return out;
}

std::vector<TraceRecord>
readTextTrace(std::istream &is)
{
    TraceParseResult out = tryReadTextTrace(is);
    if (!out.ok)
        fatal(out.error);
    return std::move(out.records);
}

TraceParseResult
tryLoadTraceFile(const std::string &path)
{
    TraceParseResult out;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        out.error = "cannot open trace file '" + path + "'";
        return out;
    }
    std::array<char, 8> magic{};
    is.read(magic.data(), magic.size());
    const bool binary = is && magic == traceMagic;
    is.clear();
    is.seekg(0);
    out = binary ? tryReadBinaryTrace(is) : tryReadTextTrace(is);
    if (!out.ok) {
        out.error = "trace '" + path + "': " + out.error;
    } else if (out.records.empty()) {
        out.ok = false;
        out.error = "trace '" + path + "' is empty";
    }
    return out;
}

TraceSourcePtr
loadTraceFile(const std::string &path)
{
    TraceParseResult out = tryLoadTraceFile(path);
    if (!out.ok)
        fatal(out.error);
    return std::make_unique<TraceSource>(path, std::move(out.records));
}

} // namespace nucache
