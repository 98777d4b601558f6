#include "reference.hh"

#include <charconv>
#include <filesystem>
#include <sstream>

namespace refbench {

ref::svc::ServiceConfig
serviceConfig(const WorkloadSpec &spec, const std::string &journalDir)
{
    ref::svc::ServiceConfig config;
    config.capacity = ref::core::SystemCapacity::fromCapacities(kCapacity);
    config.pooled = spec.pooled;
    config.buildEnforcement = !spec.pooled;
    config.journal.directory = journalDir;
    config.journal.groupBytes = spec.groupBytes;
    config.journal.groupUsec = spec.groupUsec;
    return config;
}

std::string
formatShares(const linalg::Vector &shares)
{
    std::string out;
    for (const double share : shares) {
        char buffer[32];
        const auto result =
            std::to_chars(buffer, buffer + sizeof(buffer), share);
        out += ' ';
        out.append(buffer, result.ptr);
    }
    return out;
}

bool
execute(ref::svc::CommandSession &session, const std::string &line,
        std::string &error)
{
    std::ostringstream reply;
    if (session.executeLine(line, reply) ==
        ref::svc::CommandSession::LineStatus::Rejected) {
        error = line + " -> " + reply.str();
        return false;
    }
    return true;
}

void
removeTree(const std::string &dir)
{
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
}

} // namespace refbench
