#include "comm/work_packets.h"

#include <cstring>

#include "util/assertions.h"

namespace crkhacc::comm {
namespace {

// Flat little-endian-native layout: a fixed header of counts followed by
// the raw arrays. Packets never cross machines in the in-process world,
// so host byte order is the wire order.

template <typename T>
void append(std::vector<std::uint8_t>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
void append_array(std::vector<std::uint8_t>& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  append(out, static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  out.insert(out.end(), p, p + v.size() * sizeof(T));
}

template <typename T>
T read(const std::vector<std::uint8_t>& bytes, std::size_t& cursor) {
  static_assert(std::is_trivially_copyable_v<T>);
  CHECK_MSG(cursor + sizeof(T) <= bytes.size(), "work packet truncated");
  T value;
  std::memcpy(&value, bytes.data() + cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

template <typename T>
std::vector<T> read_array(const std::vector<std::uint8_t>& bytes,
                          std::size_t& cursor) {
  const auto n = read<std::uint64_t>(bytes, cursor);
  CHECK_MSG(cursor + n * sizeof(T) <= bytes.size(),
            "work packet array truncated");
  std::vector<T> v(n);
  std::memcpy(v.data(), bytes.data() + cursor, n * sizeof(T));
  cursor += n * sizeof(T);
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_work_packet(const WorkPacket& packet) {
  std::vector<std::uint8_t> out;
  append(out, packet.donor);
  append(out, packet.substep);
  append(out, packet.a_mid);
  append_array(out, packet.leaf_begin);
  append_array(out, packet.x);
  append_array(out, packet.y);
  append_array(out, packet.z);
  append_array(out, packet.mass);
  append_array(out, packet.active);
  append_array(out, packet.task_owner);
  append_array(out, packet.task_entry_begin);
  append_array(out, packet.entry_partner);
  append_array(out, packet.entry_side);
  return out;
}

WorkPacket decode_work_packet(const std::vector<std::uint8_t>& bytes) {
  WorkPacket packet;
  std::size_t cursor = 0;
  packet.donor = read<std::uint32_t>(bytes, cursor);
  packet.substep = read<std::uint32_t>(bytes, cursor);
  packet.a_mid = read<double>(bytes, cursor);
  packet.leaf_begin = read_array<std::uint32_t>(bytes, cursor);
  packet.x = read_array<float>(bytes, cursor);
  packet.y = read_array<float>(bytes, cursor);
  packet.z = read_array<float>(bytes, cursor);
  packet.mass = read_array<float>(bytes, cursor);
  packet.active = read_array<std::uint8_t>(bytes, cursor);
  packet.task_owner = read_array<std::uint32_t>(bytes, cursor);
  packet.task_entry_begin = read_array<std::uint32_t>(bytes, cursor);
  packet.entry_partner = read_array<std::uint32_t>(bytes, cursor);
  packet.entry_side = read_array<WorkEntrySide>(bytes, cursor);
  CHECK_MSG(cursor == bytes.size(), "work packet has trailing bytes");
  CHECK_MSG(packet.x.size() == packet.y.size() &&
                packet.x.size() == packet.z.size() &&
                packet.x.size() == packet.mass.size() &&
                packet.x.size() == packet.active.size(),
            "work packet particle arrays disagree");
  return packet;
}

std::vector<std::uint8_t> encode_work_reply(const WorkReply& reply) {
  std::vector<std::uint8_t> out;
  append(out, reply.substep);
  append_array(out, reply.ax);
  append_array(out, reply.ay);
  append_array(out, reply.az);
  return out;
}

WorkReply decode_work_reply(const std::vector<std::uint8_t>& bytes) {
  WorkReply reply;
  std::size_t cursor = 0;
  reply.substep = read<std::uint32_t>(bytes, cursor);
  reply.ax = read_array<float>(bytes, cursor);
  reply.ay = read_array<float>(bytes, cursor);
  reply.az = read_array<float>(bytes, cursor);
  CHECK_MSG(cursor == bytes.size(), "work reply has trailing bytes");
  CHECK_MSG(reply.ax.size() == reply.ay.size() &&
                reply.ax.size() == reply.az.size(),
            "work reply acceleration arrays disagree");
  return reply;
}

void send_work_packet(Communicator& comm, int helper,
                      const WorkPacket& packet) {
  comm.send(helper, kTagLbWork, encode_work_packet(packet));
}

WorkPacket recv_work_packet(Communicator& comm, int donor) {
  return decode_work_packet(comm.recv<std::uint8_t>(donor, kTagLbWork));
}

void send_work_reply(Communicator& comm, int donor, const WorkReply& reply) {
  comm.send(donor, kTagLbReply, encode_work_reply(reply));
}

WorkReply recv_work_reply(Communicator& comm, int helper) {
  return decode_work_reply(comm.recv<std::uint8_t>(helper, kTagLbReply));
}

}  // namespace crkhacc::comm
