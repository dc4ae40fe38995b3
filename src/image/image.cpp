#include "image/image.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iterator>
#include <unordered_map>

#include "curare/curare.hpp"
#include "gc/gc.hpp"
#include "lisp/env.hpp"
#include "lisp/function.hpp"
#include "lisp/structs.hpp"
#include "sexpr/table.hpp"

namespace curare::image {

using lisp::Builtin;
using lisp::Closure;
using lisp::Env;
using lisp::EnvPtr;
using lisp::Instance;
using lisp::StructType;
using sexpr::Cons;
using sexpr::Float;
using sexpr::Kind;
using sexpr::Obj;
using sexpr::String;
using sexpr::Symbol;
using sexpr::Table;
using sexpr::Value;
using sexpr::Vector;

namespace {

constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

/// Immediate value encoding: one tag byte + 8 payload bytes. Heap
/// references become node indices; symbols and builtins become string
/// table references, which is what makes the blob relocatable.
enum class VTag : std::uint8_t {
  kNil = 0,
  kFixnum = 1,
  kNode = 2,
  kSym = 3,
  kBuiltin = 4,
};

struct EV {
  VTag tag = VTag::kNil;
  std::uint64_t payload = 0;
};

enum class NTag : std::uint8_t {
  kCons = 0,
  kString = 1,
  kFloat = 2,
  kVector = 3,
  kTable = 4,
  kStruct = 5,
  kClosure = 6,
  kEnv = 7,
};

struct NodeRec {
  NTag tag = NTag::kCons;
  EV a, d;                          ///< cons car/cdr; closure body in a
  std::uint32_t str = 0;            ///< string text / closure name
  std::uint64_t fbits = 0;          ///< float payload
  std::vector<EV> vals;             ///< vector items / table k,v pairs /
                                    ///< struct slots / env binding values
  std::vector<std::uint32_t> syms;  ///< closure params / env binding names
  std::uint32_t type_idx = 0;       ///< struct type table index
  std::uint32_t env_idx = kNoNode;  ///< closure captured frame
  std::uint32_t nrequired = 0;      ///< closure params before &optional
  bool has_rest = false;
  std::uint32_t rest_sym = 0;
  std::uint32_t parent = kNoNode;  ///< env parent frame
  bool env_global = false;
};

struct StructRec {
  std::uint32_t name = 0;
  std::vector<std::uint32_t> pointer_fields;
  std::vector<std::uint32_t> data_fields;
};

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- byte-stream helpers ------------------------------------------------

struct Writer {
  std::vector<std::uint8_t> out;
  void u8(std::uint8_t v) { out.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  }
  void ev(const EV& v) {
    u8(static_cast<std::uint8_t>(v.tag));
    u64(v.payload);
  }
};

struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t off = 0;

  void need(std::size_t k) const {
    if (off + k > n)
      throw ImageError("image truncated: payload ends mid-record");
  }
  std::uint8_t u8() {
    need(1);
    return p[off++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[off++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[off++]) << (8 * i);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return s;
  }
  EV ev() {
    EV v;
    const std::uint8_t t = u8();
    if (t > static_cast<std::uint8_t>(VTag::kBuiltin))
      throw ImageError("image corrupt: unknown value tag " +
                       std::to_string(t));
    v.tag = static_cast<VTag>(t);
    v.payload = u64();
    return v;
  }
};

}  // namespace

// ---- the decoded (pointer-free) layout ----------------------------------

struct SessionImage::Decoded {
  std::vector<std::string> strings;
  std::vector<StructRec> structs;
  std::vector<NodeRec> nodes;
  std::uint32_t global_env = kNoNode;
  std::vector<EV> definitions;
};

std::size_t SessionImage::node_count() const {
  return decoded_ ? decoded_->nodes.size() : 0;
}

// ---- capture ------------------------------------------------------------

namespace {

class Capturer {
 public:
  explicit Capturer(SessionImage::Decoded& d) : d_(d) {}

  std::uint32_t str_id(const std::string& s) {
    auto [it, fresh] =
        str_ids_.try_emplace(s, static_cast<std::uint32_t>(d_.strings.size()));
    if (fresh) d_.strings.push_back(s);
    return it->second;
  }

  std::uint32_t struct_id(const StructType* t) {
    auto [it, fresh] = struct_ids_.try_emplace(
        t, static_cast<std::uint32_t>(d_.structs.size()));
    if (fresh) {
      StructRec r;
      r.name = str_id(t->name->name);
      for (Symbol* f : t->pointer_fields)
        r.pointer_fields.push_back(str_id(f->name));
      for (Symbol* f : t->data_fields)
        r.data_fields.push_back(str_id(f->name));
      d_.structs.push_back(std::move(r));
    }
    return it->second;
  }

  std::uint32_t node_id(const Obj* o, NTag tag) {
    auto [it, fresh] = node_ids_.try_emplace(
        o, static_cast<std::uint32_t>(d_.nodes.size()));
    if (fresh) {
      d_.nodes.emplace_back().tag = tag;
      pending_objs_.push_back(o);
    }
    return it->second;
  }

  std::uint32_t env_id(const Env* e) {
    auto [it, fresh] = node_ids_.try_emplace(
        e, static_cast<std::uint32_t>(d_.nodes.size()));
    if (fresh) {
      d_.nodes.emplace_back().tag = NTag::kEnv;
      pending_envs_.push_back(e);
    }
    return it->second;
  }

  EV ev(Value v) {
    EV out;
    if (v.is_nil()) return out;
    if (v.is_fixnum()) {
      out.tag = VTag::kFixnum;
      out.payload = static_cast<std::uint64_t>(v.as_fixnum());
      return out;
    }
    const Obj* o = v.obj();
    switch (o->kind) {
      case Kind::Symbol:
        out.tag = VTag::kSym;
        out.payload = str_id(static_cast<const Symbol*>(o)->name);
        return out;
      case Kind::Builtin:
        out.tag = VTag::kBuiltin;
        out.payload = str_id(static_cast<const Builtin*>(o)->name);
        return out;
      case Kind::Native:
        throw ImageError(
            "image capture: session state holds a native runtime object "
            "(future/lock/queue), which cannot relocate; evaluate the "
            "prelude without leaving such objects reachable");
      default:
        out.tag = VTag::kNode;
        out.payload = node_id(o, tag_of(o->kind));
        return out;
    }
  }

  /// Drain the discovery worklists, filling node records. Iterative so
  /// deep list structure never recurses through C++ frames.
  void drain() {
    while (!pending_objs_.empty() || !pending_envs_.empty()) {
      if (!pending_objs_.empty()) {
        const Obj* o = pending_objs_.front();
        pending_objs_.pop_front();
        fill_obj(o);
      } else {
        const Env* e = pending_envs_.front();
        pending_envs_.pop_front();
        fill_env(e);
      }
    }
  }

 private:
  static NTag tag_of(Kind k) {
    switch (k) {
      case Kind::Cons: return NTag::kCons;
      case Kind::String: return NTag::kString;
      case Kind::Float: return NTag::kFloat;
      case Kind::Vector: return NTag::kVector;
      case Kind::Table: return NTag::kTable;
      case Kind::Closure: return NTag::kClosure;
      case Kind::Struct: return NTag::kStruct;
      default:
        throw ImageError("image capture: unexpected heap object kind");
    }
  }

  void fill_obj(const Obj* o) {
    // Children discovered here may append to d_.nodes, so re-resolve
    // the record after every ev() batch: grab the id first.
    const std::uint32_t id = node_ids_.at(o);
    switch (o->kind) {
      case Kind::Cons: {
        const auto* c = static_cast<const Cons*>(o);
        const EV a = ev(c->car());
        const EV d = ev(c->cdr());
        d_.nodes[id].a = a;
        d_.nodes[id].d = d;
        break;
      }
      case Kind::String:
        d_.nodes[id].str = str_id(static_cast<const String*>(o)->text);
        break;
      case Kind::Float:
        d_.nodes[id].fbits =
            std::bit_cast<std::uint64_t>(static_cast<const Float*>(o)->value);
        break;
      case Kind::Vector: {
        const auto* v = static_cast<const Vector*>(o);
        std::vector<EV> items;
        items.reserve(v->items.size());
        for (Value x : v->items) items.push_back(ev(x));
        d_.nodes[id].vals = std::move(items);
        break;
      }
      case Kind::Table: {
        const auto* t = static_cast<const Table*>(o);
        std::vector<EV> kv;
        for (const auto& [k, v] : t->entries()) {
          kv.push_back(ev(k));
          kv.push_back(ev(v));
        }
        d_.nodes[id].vals = std::move(kv);
        break;
      }
      case Kind::Struct: {
        const auto* inst = static_cast<const Instance*>(o);
        const std::uint32_t tix = struct_id(inst->type.get());
        std::vector<EV> slots;
        const int n = static_cast<int>(inst->slots.size());
        for (int i = 0; i < n; ++i) slots.push_back(ev(inst->get(i)));
        d_.nodes[id].type_idx = tix;
        d_.nodes[id].vals = std::move(slots);
        break;
      }
      case Kind::Closure: {
        const auto* c = static_cast<const Closure*>(o);
        const std::uint32_t name = str_id(c->name);
        std::vector<std::uint32_t> params;
        for (Symbol* p : c->params) params.push_back(str_id(p->name));
        const bool has_rest = c->rest != nullptr;
        const std::uint32_t rest =
            has_rest ? str_id(c->rest->name) : 0;
        const EV body = ev(c->body);
        const std::uint32_t env =
            c->env ? env_id(c->env.get()) : kNoNode;
        NodeRec& r = d_.nodes[id];
        r.str = name;
        r.syms = std::move(params);
        r.nrequired = static_cast<std::uint32_t>(c->nrequired);
        r.has_rest = has_rest;
        r.rest_sym = rest;
        r.a = body;
        r.env_idx = env;
        // The compiled-code cache (code_state/code) is deliberately not
        // captured: a clone restarts at kCodeUnknown, so even a
        // kCodeRefused verdict is re-derived in the new session.
        break;
      }
      default:
        throw ImageError("image capture: unexpected heap object kind");
    }
  }

  void fill_env(const Env* e) {
    const std::uint32_t id = node_ids_.at(e);
    const bool global = e->is_global();
    const std::uint32_t parent =
        e->parent() ? env_id(e->parent().get()) : kNoNode;
    // Sort bindings by name so identical sessions produce byte-identical
    // blobs (the frame map is unordered).
    std::vector<std::pair<Symbol*, Value>> binds;
    e->for_each_binding_named(
        [&](Symbol* s, Value v) { binds.emplace_back(s, v); });
    std::sort(binds.begin(), binds.end(), [](const auto& x, const auto& y) {
      return x.first->name < y.first->name;
    });
    std::vector<std::uint32_t> names;
    std::vector<EV> vals;
    names.reserve(binds.size());
    vals.reserve(binds.size());
    for (const auto& [s, v] : binds) {
      names.push_back(str_id(s->name));
      vals.push_back(ev(v));
    }
    NodeRec& r = d_.nodes[id];
    r.env_global = global;
    r.parent = parent;
    r.syms = std::move(names);
    r.vals = std::move(vals);
  }

  SessionImage::Decoded& d_;
  std::unordered_map<const void*, std::uint32_t> node_ids_;
  std::unordered_map<std::string, std::uint32_t> str_ids_;
  std::unordered_map<const StructType*, std::uint32_t> struct_ids_;
  std::deque<const Obj*> pending_objs_;
  std::deque<const Env*> pending_envs_;
};

std::vector<std::uint8_t> encode(const SessionImage::Decoded& d) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(d.strings.size()));
  for (const auto& s : d.strings) w.str(s);
  w.u32(static_cast<std::uint32_t>(d.structs.size()));
  for (const auto& s : d.structs) {
    w.u32(s.name);
    w.u32(static_cast<std::uint32_t>(s.pointer_fields.size()));
    for (std::uint32_t f : s.pointer_fields) w.u32(f);
    w.u32(static_cast<std::uint32_t>(s.data_fields.size()));
    for (std::uint32_t f : s.data_fields) w.u32(f);
  }
  w.u32(static_cast<std::uint32_t>(d.nodes.size()));
  for (const auto& nd : d.nodes) {
    w.u8(static_cast<std::uint8_t>(nd.tag));
    switch (nd.tag) {
      case NTag::kCons:
        w.ev(nd.a);
        w.ev(nd.d);
        break;
      case NTag::kString:
        w.u32(nd.str);
        break;
      case NTag::kFloat:
        w.u64(nd.fbits);
        break;
      case NTag::kVector:
      case NTag::kTable:
        w.u32(static_cast<std::uint32_t>(nd.vals.size()));
        for (const EV& v : nd.vals) w.ev(v);
        break;
      case NTag::kStruct:
        w.u32(nd.type_idx);
        w.u32(static_cast<std::uint32_t>(nd.vals.size()));
        for (const EV& v : nd.vals) w.ev(v);
        break;
      case NTag::kClosure:
        w.u32(nd.str);
        w.u32(static_cast<std::uint32_t>(nd.syms.size()));
        for (std::uint32_t s : nd.syms) w.u32(s);
        w.u32(nd.nrequired);
        w.u8(nd.has_rest ? 1 : 0);
        if (nd.has_rest) w.u32(nd.rest_sym);
        w.ev(nd.a);
        w.u32(nd.env_idx);
        break;
      case NTag::kEnv:
        w.u32(nd.parent);
        w.u8(nd.env_global ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(nd.syms.size()));
        for (std::size_t i = 0; i < nd.syms.size(); ++i) {
          w.u32(nd.syms[i]);
          w.ev(nd.vals[i]);
        }
        break;
    }
  }
  w.u32(d.global_env);
  w.u32(static_cast<std::uint32_t>(d.definitions.size()));
  for (const EV& v : d.definitions) w.ev(v);

  // Prepend the header.
  std::vector<std::uint8_t> blob;
  blob.reserve(32 + w.out.size());
  for (char c : kImageMagic) blob.push_back(static_cast<std::uint8_t>(c));
  Writer h;
  h.u32(kImageFormatVersion);
  h.u32(0);  // flags, reserved
  h.u64(w.out.size());
  h.u64(fnv1a(w.out.data(), w.out.size()));
  blob.insert(blob.end(), h.out.begin(), h.out.end());
  blob.insert(blob.end(), w.out.begin(), w.out.end());
  return blob;
}

std::shared_ptr<SessionImage::Decoded> decode(
    const std::vector<std::uint8_t>& blob) {
  if (blob.size() < 8 || std::memcmp(blob.data(), kImageMagic, 8) != 0)
    throw ImageError("not a curare image (bad magic)");
  if (blob.size() < 32)
    throw ImageError("image truncated: shorter than the 32-byte header");
  Reader hr{blob.data() + 8, 24};
  const std::uint32_t version = hr.u32();
  (void)hr.u32();  // flags
  const std::uint64_t payload_size = hr.u64();
  const std::uint64_t checksum = hr.u64();
  if (version != kImageFormatVersion)
    throw ImageError("image format version mismatch: blob has v" +
                     std::to_string(version) + ", this build reads v" +
                     std::to_string(kImageFormatVersion));
  if (blob.size() - 32 != payload_size)
    throw ImageError("image truncated: header promises " +
                     std::to_string(payload_size) + " payload byte(s), " +
                     std::to_string(blob.size() - 32) + " present");
  if (fnv1a(blob.data() + 32, payload_size) != checksum)
    throw ImageError("image checksum mismatch: blob is corrupt");

  auto d = std::make_shared<SessionImage::Decoded>();
  Reader r{blob.data() + 32, static_cast<std::size_t>(payload_size)};
  const std::uint32_t nstrings = r.u32();
  d->strings.reserve(nstrings);
  for (std::uint32_t i = 0; i < nstrings; ++i) d->strings.push_back(r.str());
  auto check_str = [&](std::uint32_t idx) {
    if (idx >= d->strings.size())
      throw ImageError("image corrupt: string reference out of range");
    return idx;
  };
  const std::uint32_t nstructs = r.u32();
  for (std::uint32_t i = 0; i < nstructs; ++i) {
    StructRec s;
    s.name = check_str(r.u32());
    const std::uint32_t np = r.u32();
    for (std::uint32_t k = 0; k < np; ++k)
      s.pointer_fields.push_back(check_str(r.u32()));
    const std::uint32_t ndt = r.u32();
    for (std::uint32_t k = 0; k < ndt; ++k)
      s.data_fields.push_back(check_str(r.u32()));
    d->structs.push_back(std::move(s));
  }
  const std::uint32_t nnodes = r.u32();
  d->nodes.reserve(nnodes);
  for (std::uint32_t i = 0; i < nnodes; ++i) {
    NodeRec nd;
    const std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(NTag::kEnv))
      throw ImageError("image corrupt: unknown node tag " +
                       std::to_string(tag));
    nd.tag = static_cast<NTag>(tag);
    switch (nd.tag) {
      case NTag::kCons:
        nd.a = r.ev();
        nd.d = r.ev();
        break;
      case NTag::kString:
        nd.str = check_str(r.u32());
        break;
      case NTag::kFloat:
        nd.fbits = r.u64();
        break;
      case NTag::kVector:
      case NTag::kTable: {
        const std::uint32_t n = r.u32();
        nd.vals.reserve(n);
        for (std::uint32_t k = 0; k < n; ++k) nd.vals.push_back(r.ev());
        break;
      }
      case NTag::kStruct: {
        nd.type_idx = r.u32();
        if (nd.type_idx >= d->structs.size())
          throw ImageError("image corrupt: struct type out of range");
        const std::uint32_t n = r.u32();
        nd.vals.reserve(n);
        for (std::uint32_t k = 0; k < n; ++k) nd.vals.push_back(r.ev());
        break;
      }
      case NTag::kClosure: {
        nd.str = check_str(r.u32());
        const std::uint32_t n = r.u32();
        nd.syms.reserve(n);
        for (std::uint32_t k = 0; k < n; ++k)
          nd.syms.push_back(check_str(r.u32()));
        nd.nrequired = r.u32();
        if (nd.nrequired > n)
          throw ImageError("image corrupt: closure requires more "
                           "parameters than it has");
        nd.has_rest = r.u8() != 0;
        if (nd.has_rest) nd.rest_sym = check_str(r.u32());
        nd.a = r.ev();
        nd.env_idx = r.u32();
        break;
      }
      case NTag::kEnv: {
        nd.parent = r.u32();
        nd.env_global = r.u8() != 0;
        const std::uint32_t n = r.u32();
        nd.syms.reserve(n);
        nd.vals.reserve(n);
        for (std::uint32_t k = 0; k < n; ++k) {
          nd.syms.push_back(check_str(r.u32()));
          nd.vals.push_back(r.ev());
        }
        break;
      }
    }
    d->nodes.push_back(std::move(nd));
  }
  d->global_env = r.u32();
  const std::uint32_t nforms = r.u32();
  d->definitions.reserve(nforms);
  for (std::uint32_t i = 0; i < nforms; ++i)
    d->definitions.push_back(r.ev());
  if (r.off != r.n)
    throw ImageError("image corrupt: " +
                     std::to_string(r.n - r.off) +
                     " trailing byte(s) after the root section");

  // Cross-node reference validation so clone_into can index fearlessly.
  auto check_node = [&](std::uint32_t idx, NTag want) {
    if (idx >= d->nodes.size())
      throw ImageError("image corrupt: node reference out of range");
    if (d->nodes[idx].tag != want)
      throw ImageError("image corrupt: node reference has wrong kind");
  };
  auto check_ev = [&](const EV& v) {
    if (v.tag == VTag::kNode) {
      if (v.payload >= d->nodes.size())
        throw ImageError("image corrupt: value references a missing node");
      if (d->nodes[static_cast<std::size_t>(v.payload)].tag == NTag::kEnv)
        throw ImageError("image corrupt: value references an env frame");
    } else if (v.tag == VTag::kSym || v.tag == VTag::kBuiltin) {
      check_str(static_cast<std::uint32_t>(v.payload));
    }
  };
  for (const NodeRec& nd : d->nodes) {
    check_ev(nd.a);
    check_ev(nd.d);
    for (const EV& v : nd.vals) check_ev(v);
    if (nd.tag == NTag::kClosure && nd.env_idx != kNoNode)
      check_node(nd.env_idx, NTag::kEnv);
    if (nd.tag == NTag::kEnv && nd.parent != kNoNode)
      check_node(nd.parent, NTag::kEnv);
  }
  if (d->global_env != kNoNode) check_node(d->global_env, NTag::kEnv);
  for (const EV& v : d->definitions) check_ev(v);
  return d;
}

}  // namespace

SessionImage SessionImage::capture(Curare& templ) {
  gc::MutatorScope ms(templ.interp().ctx().heap.gc());
  SessionImage img;
  auto d = std::make_shared<Decoded>();
  Capturer cap(*d);
  // Struct types first, even those with no live instance: the clone
  // re-registers every one so make-X / X-p / accessor builtins exist
  // before builtin references resolve.
  for (const auto& t : templ.interp().struct_types()) cap.struct_id(t.get());
  d->global_env = cap.env_id(templ.interp().global_env().get());
  for (Value f : templ.definitions())
    d->definitions.push_back(cap.ev(f));
  cap.drain();
  img.bytes_ = encode(*d);
  img.decoded_ = std::move(d);
  return img;
}

SessionImage SessionImage::from_bytes(std::vector<std::uint8_t> bytes) {
  SessionImage img;
  img.decoded_ = decode(bytes);
  img.bytes_ = std::move(bytes);
  return img;
}

SessionImage SessionImage::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ImageError("cannot open image file " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw ImageError("read error on image file " + path);
  return from_bytes(std::move(bytes));
}

void SessionImage::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ImageError("cannot create image file " + path);
  out.write(reinterpret_cast<const char*>(bytes_.data()),
            static_cast<std::streamsize>(bytes_.size()));
  out.flush();
  if (!out) throw ImageError("write error on image file " + path);
}

// ---- clone --------------------------------------------------------------

CloneStats SessionImage::clone_into(Curare& target) const {
  if (!decoded_) throw ImageError("clone from an empty image");
  const Decoded& d = *decoded_;
  const auto t0 = std::chrono::steady_clock::now();
  CloneStats stats;

  sexpr::Ctx& ctx = target.interp().ctx();
  gc::GcHeap& gc = ctx.heap.gc();
  // One unsafe region across the whole materialization: half-fixed
  // nodes are never visible to a collection.
  gc::MutatorScope ms(gc);
  // Bulk reservation: one lock acquisition pre-builds enough bump
  // blocks that the allocation loop below never takes the heap-growth
  // path. 64 bytes/node over-estimates conses and under-estimates big
  // vectors; refill falls back to normal growth if it runs short.
  stats.blocks_reserved = gc.reserve_blocks(d.nodes.size() * 64);

  // Pass 0: re-register struct types through the interpreter's own
  // defstruct path, so instances get their shared_ptr type and the
  // make-/pred/accessor builtins exist for reference resolution.
  for (const StructRec& s : d.structs) {
    std::vector<Value> ptrs{Value::object(ctx.symbols.intern("pointers"))};
    for (std::uint32_t f : s.pointer_fields)
      ptrs.push_back(Value::object(ctx.symbols.intern(d.strings[f])));
    std::vector<Value> data{Value::object(ctx.symbols.intern("data"))};
    for (std::uint32_t f : s.data_fields)
      data.push_back(Value::object(ctx.symbols.intern(d.strings[f])));
    Value form = ctx.list({Value::object(ctx.symbols.intern("defstruct")),
                           Value::object(ctx.symbols.intern(d.strings[s.name])),
                           ctx.list(ptrs), ctx.list(data)});
    target.interp().eval_top(form);
  }

  const EnvPtr& global = target.interp().global_env();
  auto resolve_builtin = [&](std::uint32_t str_idx) {
    const std::string& name = d.strings[str_idx];
    Value v = target.interp().global(name);
    if (!v.is(Kind::Builtin))
      throw ImageError("image references builtin '" + name +
                       "' which is not installed in this session");
    return v;
  };

  std::vector<Obj*> objs(d.nodes.size(), nullptr);
  std::vector<EnvPtr> envs(d.nodes.size());

  auto decode_ev = [&](const EV& v) -> Value {
    switch (v.tag) {
      case VTag::kNil:
        return Value::nil();
      case VTag::kFixnum:
        return Value::fixnum(static_cast<std::int64_t>(v.payload));
      case VTag::kSym:
        return Value::object(ctx.symbols.intern(
            d.strings[static_cast<std::size_t>(v.payload)]));
      case VTag::kBuiltin:
        return resolve_builtin(static_cast<std::uint32_t>(v.payload));
      case VTag::kNode:
        return Value::object(objs[static_cast<std::size_t>(v.payload)]);
    }
    return Value::nil();
  };

  // Pass 1: bump-allocate every non-closure heap object with
  // placeholder contents, establishing final addresses for fixup.
  sexpr::Heap& heap = ctx.heap;
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    const NodeRec& nd = d.nodes[i];
    switch (nd.tag) {
      case NTag::kCons:
        objs[i] = heap.alloc<Cons>(Value::nil(), Value::nil());
        break;
      case NTag::kString:
        objs[i] = heap.alloc<String>(d.strings[nd.str]);
        break;
      case NTag::kFloat:
        objs[i] =
            heap.alloc<Float>(std::bit_cast<double>(nd.fbits));
        break;
      case NTag::kVector:
        objs[i] = heap.alloc<Vector>();
        break;
      case NTag::kTable:
        objs[i] = heap.alloc<Table>();
        break;
      case NTag::kStruct: {
        auto type = target.interp().struct_type(ctx.symbols.intern(
            d.strings[d.structs[nd.type_idx].name]));
        if (!type)
          throw ImageError("image struct type " +
                           d.strings[d.structs[nd.type_idx].name] +
                           " failed to re-register");
        if (type->slot_count() != nd.vals.size())
          throw ImageError("image corrupt: struct slot count mismatch");
        objs[i] = heap.alloc<Instance>(std::move(type));
        break;
      }
      case NTag::kClosure:
      case NTag::kEnv:
        break;  // passes 2–3
    }
    if (objs[i] != nullptr) ++stats.nodes;
  }

  // Pass 2: rebuild env frames parent-first. The captured global frame
  // maps onto the target session's existing global env (bindings merge
  // in pass 4); local frames are fresh.
  std::function<EnvPtr(std::uint32_t)> build_env =
      [&](std::uint32_t id) -> EnvPtr {
    if (envs[id]) return envs[id];
    const NodeRec& nd = d.nodes[id];
    if (nd.env_global) {
      envs[id] = global;
      return envs[id];
    }
    EnvPtr parent =
        nd.parent == kNoNode ? EnvPtr() : build_env(nd.parent);
    envs[id] = Env::make_local(std::move(parent));
    ++stats.env_frames;
    return envs[id];
  };
  for (std::size_t i = 0; i < d.nodes.size(); ++i)
    if (d.nodes[i].tag == NTag::kEnv) build_env(static_cast<std::uint32_t>(i));

  // Pass 3: construct closures (const body/env fields need both in
  // hand). A closure body is almost always a cons tree from pass 1; a
  // body that is directly another closure resolves in a later round.
  std::vector<std::uint32_t> todo;
  for (std::size_t i = 0; i < d.nodes.size(); ++i)
    if (d.nodes[i].tag == NTag::kClosure)
      todo.push_back(static_cast<std::uint32_t>(i));
  while (!todo.empty()) {
    std::vector<std::uint32_t> next;
    for (std::uint32_t id : todo) {
      const NodeRec& nd = d.nodes[id];
      if (nd.a.tag == VTag::kNode &&
          objs[static_cast<std::size_t>(nd.a.payload)] == nullptr) {
        next.push_back(id);
        continue;
      }
      std::vector<Symbol*> params;
      params.reserve(nd.syms.size());
      for (std::uint32_t s : nd.syms)
        params.push_back(ctx.symbols.intern(d.strings[s]));
      Symbol* rest =
          nd.has_rest ? ctx.symbols.intern(d.strings[nd.rest_sym]) : nullptr;
      EnvPtr env = nd.env_idx == kNoNode ? global : envs[nd.env_idx];
      // Fresh Closure ⇒ code_state starts at kCodeUnknown: compiled
      // code and refusal verdicts never cross the image boundary.
      objs[id] = heap.alloc<Closure>(d.strings[nd.str], std::move(params),
                                     nd.nrequired, rest, decode_ev(nd.a),
                                     std::move(env));
      ++stats.nodes;
    }
    if (next.size() == todo.size())
      throw ImageError(
          "image corrupt: closure bodies form an unresolvable cycle");
    todo = std::move(next);
  }

  // Pass 4: fix up every slot now that all addresses exist.
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    const NodeRec& nd = d.nodes[i];
    switch (nd.tag) {
      case NTag::kCons: {
        auto* c = static_cast<Cons*>(objs[i]);
        c->set_car(decode_ev(nd.a));
        c->set_cdr(decode_ev(nd.d));
        break;
      }
      case NTag::kVector: {
        auto* v = static_cast<Vector*>(objs[i]);
        v->items.reserve(nd.vals.size());
        for (const EV& x : nd.vals) v->items.push_back(decode_ev(x));
        break;
      }
      case NTag::kTable: {
        auto* t = static_cast<Table*>(objs[i]);
        for (std::size_t k = 0; k + 1 < nd.vals.size(); k += 2)
          t->put(decode_ev(nd.vals[k]), decode_ev(nd.vals[k + 1]));
        break;
      }
      case NTag::kStruct: {
        auto* inst = static_cast<Instance*>(objs[i]);
        for (std::size_t k = 0; k < nd.vals.size(); ++k)
          inst->set(static_cast<int>(k), decode_ev(nd.vals[k]));
        break;
      }
      case NTag::kEnv: {
        const EnvPtr& e = envs[i];
        if (nd.env_global) {
          // Merge into the target's live global frame. A captured
          // builtin reference whose name the target already binds to a
          // builtin is skipped — the target's own registration (same
          // name, this session's interpreter) wins; everything else,
          // including prelude shadowings of builtin names, is installed.
          for (std::size_t k = 0; k < nd.syms.size(); ++k) {
            Symbol* s = ctx.symbols.intern(d.strings[nd.syms[k]]);
            const EV& v = nd.vals[k];
            if (v.tag == VTag::kBuiltin) {
              auto existing = e->lookup(s);
              if (existing && existing->is(Kind::Builtin)) continue;
            }
            e->define(s, decode_ev(v));
            ++stats.bindings;
          }
        } else {
          for (std::size_t k = 0; k < nd.syms.size(); ++k)
            e->define(ctx.symbols.intern(d.strings[nd.syms[k]]),
                      decode_ev(nd.vals[k]));
        }
        break;
      }
      default:
        break;
    }
  }

  // Roots: hand the definitions to the driver so analyzer state
  // (defuns, declarations, summaries) matches the template session.
  std::vector<Value> forms;
  forms.reserve(d.definitions.size());
  for (const EV& v : d.definitions) forms.push_back(decode_ev(v));
  target.adopt_definitions(forms);

  stats.ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return stats;
}

}  // namespace curare::image
