#include "atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <unistd.h>

namespace solarcore::util {

bool
writeFileAtomically(const std::string &path, std::string_view bytes,
                    std::string &error)
{
    static std::atomic<std::uint64_t> next{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
        "." + std::to_string(next.fetch_add(1, std::memory_order_relaxed));
    auto fail = [&](std::string what) {
        std::remove(tmp.c_str());
        error = std::move(what);
        return false;
    };
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return fail("cannot open '" + tmp + "'");
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.close();
        if (!os)
            return fail("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return fail("rename to '" + path + "' failed: " +
                    std::strerror(errno));
    return true;
}

} // namespace solarcore::util
