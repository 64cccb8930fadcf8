#include "coherence/protocol.hh"

namespace corona::coherence {

bool
canRead(MoesiState state)
{
    return state != MoesiState::Invalid;
}

bool
canWrite(MoesiState state)
{
    return state == MoesiState::Modified || state == MoesiState::Exclusive;
}

bool
isDirty(MoesiState state)
{
    return state == MoesiState::Modified || state == MoesiState::Owned;
}

std::string
to_string(MoesiState state)
{
    switch (state) {
      case MoesiState::Modified: return "M";
      case MoesiState::Owned: return "O";
      case MoesiState::Exclusive: return "E";
      case MoesiState::Shared: return "S";
      case MoesiState::Invalid: return "I";
    }
    return "?";
}

std::string
to_string(CoherenceMsg msg)
{
    switch (msg) {
      case CoherenceMsg::GetS: return "GetS";
      case CoherenceMsg::GetM: return "GetM";
      case CoherenceMsg::FwdGetS: return "FwdGetS";
      case CoherenceMsg::FwdGetM: return "FwdGetM";
      case CoherenceMsg::Inval: return "Inval";
      case CoherenceMsg::InvalBcast: return "InvalBcast";
      case CoherenceMsg::InvAck: return "InvAck";
      case CoherenceMsg::Data: return "Data";
      case CoherenceMsg::PutM: return "PutM";
      case CoherenceMsg::PutS: return "PutS";
      case CoherenceMsg::PutAck: return "PutAck";
    }
    return "?";
}

std::string
to_string(InvalPolicy policy)
{
    for (const auto &[value, name] : invalPolicyNames) {
        if (value == policy)
            return name;
    }
    return "?";
}

} // namespace corona::coherence
