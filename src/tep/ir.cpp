#include "tep/ir.hpp"

#include <algorithm>
#include <optional>

#include "support/bits.hpp"
#include "support/diag.hpp"
#include "tep/microcode.hpp"

namespace pscp::tep::ir {

const char* irOpName(IrOp op) {
  switch (op) {
    case IrOp::kAddCycles: return "cycles+";
    case IrOp::kLoadImm: return "li";
    case IrOp::kCopy: return "mov";
    case IrOp::kMask: return "mask";
    case IrOp::kAddImm: return "addi";
    case IrOp::kAdd: return "add";
    case IrOp::kSub: return "sub";
    case IrOp::kAnd: return "and";
    case IrOp::kOr: return "or";
    case IrOp::kXor: return "xor";
    case IrOp::kNot: return "not";
    case IrOp::kNeg: return "neg";
    case IrOp::kMul: return "mul";
    case IrOp::kDivMod: return "divmod";
    case IrOp::kCmp: return "cmp";
    case IrOp::kShl: return "shl";
    case IrOp::kShr: return "shr";
    case IrOp::kSar: return "sar";
    case IrOp::kLoad: return "ld";
    case IrOp::kStore: return "st";
    case IrOp::kLoadAt: return "ld@";
    case IrOp::kStoreAt: return "st@";
    case IrOp::kRegGet: return "rget";
    case IrOp::kRegSet: return "rset";
    case IrOp::kPortRead: return "inp";
    case IrOp::kPortWrite: return "outp";
    case IrOp::kEvSet: return "evset";
    case IrOp::kCondSet: return "cset";
    case IrOp::kCondTest: return "ctst";
    case IrOp::kStateTest: return "stst";
    case IrOp::kCustom: return "custom";
    case IrOp::kJump: return "jmp";
    case IrOp::kJz: return "jz";
    case IrOp::kJnz: return "jnz";
    case IrOp::kJn: return "jn";
    case IrOp::kJc: return "jc";
    case IrOp::kCall: return "call";
    case IrOp::kRet: return "ret";
    case IrOp::kTret: return "tret";
    case IrOp::kRunOff: return "runoff";
    case IrOp::kSetZ: return "setz";
    case IrOp::kSetN: return "setn";
    case IrOp::kSetC: return "setc";
  }
  return "?";
}

namespace {
const char* vregName(int v) {
  switch (v) {
    case kVregAcc: return "acc";
    case kVregOp: return "op";
    case kVregTmp: return "tmp";
    default: return "-";
  }
}
}  // namespace

std::string IrInst::str() const {
  std::string s = strfmt("%-8s", irOpName(op));
  if (dst >= 0) s += strfmt(" %s", vregName(dst));
  if (src1 >= 0) s += strfmt(" %s", vregName(src1));
  if (src2 >= 0) s += strfmt(" %s", vregName(src2));
  s += strfmt(" imm=%d", imm);
  if (imm2 != 0) s += strfmt(" imm2=%d", imm2);
  s += strfmt(" w=%d", width);
  if (setZ || setN || setC)
    s += strfmt(" [%s%s%s]", setZ ? "Z" : "", setN ? "N" : "", setC ? "C" : "");
  return s;
}

int IrRoutine::anchorOf(int target) const {
  for (size_t i = 0; i < code.size(); ++i)
    if (code[i].op == IrOp::kAddCycles && code[i].isa == target)
      return static_cast<int>(i);
  return -1;
}

std::string IrRoutine::listing() const {
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const IrInst& in = code[i];
    if (in.op == IrOp::kAddCycles) out += strfmt("isa %d:\n", in.isa);
    out += strfmt("  %3zu  %s\n", i, in.str().c_str());
  }
  return out;
}

namespace {

bool fallsThrough(Opcode op) {
  // kCall "falls through" in the sense that its continuation (the next
  // instruction) is reachable via Ret.
  switch (op) {
    case Opcode::Jmp:
    case Opcode::Ret:
    case Opcode::Tret:
      return false;
    default:
      return true;
  }
}

bool isBranch(Opcode op) {
  switch (op) {
    case Opcode::Jmp:
    case Opcode::Jz:
    case Opcode::Jnz:
    case Opcode::Jn:
    case Opcode::Jc:
    case Opcode::Call:
      return true;
    default:
      return false;
  }
}

struct Lowerer {
  const AsmProgram& program;
  const hwlib::ArchConfig& config;
  const LowerLimits& limits;
  IrRoutine out;
  std::string reason;

  bool lower(int entry);
  void lowerInstr(int i, const Instr& in);
  void push(IrInst in) { out.code.push_back(in); }
};

bool Lowerer::lower(int entry) {
  const int size = static_cast<int>(program.code.size());
  if (entry < 0 || entry >= size) {
    reason = "entry out of range";
    return false;
  }
  // Reachability over the ISA instruction stream.
  std::vector<char> reach(static_cast<size_t>(size), 0);
  std::vector<int> work{entry};
  reach[static_cast<size_t>(entry)] = 1;
  auto visit = [&](int t) {
    if (t >= 0 && t < size && !reach[static_cast<size_t>(t)]) {
      reach[static_cast<size_t>(t)] = 1;
      work.push_back(t);
    }
  };
  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    const Instr& in = program.code[static_cast<size_t>(i)];
    if (isBranch(in.op)) visit(in.operand);
    if (fallsThrough(in.op)) visit(i + 1);
  }

  out.entryIsa = entry;
  for (int i = 0; i < size; ++i) {
    if (!reach[static_cast<size_t>(i)]) continue;
    const Instr& in = program.code[static_cast<size_t>(i)];
    if (in.width < 1 || in.width > kMaxWidth) {
      reason = strfmt("isa %d: unsupported width %d", i, in.width);
      return false;
    }
    ++out.stats.isaInstructions;
    lowerInstr(i, in);
    if (!reason.empty()) return false;
    // Falling off the end of the program is a runtime error, raised by the
    // interpreter's beginInstruction inside the same cycle.
    if (fallsThrough(in.op) && i + 1 >= size) {
      IrInst ro;
      ro.op = IrOp::kRunOff;
      ro.imm = i + 1;
      ro.isa = i;
      push(ro);
    }
    if (static_cast<int>(out.code.size()) > limits.maxIrOps) {
      reason = "routine exceeds IR size limit";
      return false;
    }
  }
  out.stats.loweredOps = static_cast<int>(out.code.size());
  return true;
}

void Lowerer::lowerInstr(int i, const Instr& in) {
  const int w = in.width;
  const uint32_t mask = maskBits(w);
  const int bytes = (w + 7) / 8;
  const int chunks = config.chunksFor(w);
  const std::vector<MicroInstr> micro = microcodeFor(in, config);
  const int staticCost = static_cast<int>(micro.size());
  // Cycles from the first data micro-op to the end of the static cost
  // (traced native runs place the access's bus cycles with it).
  const auto firstData = std::find_if(micro.begin(), micro.end(), [](const MicroInstr& mi) {
    return mi.op == MicroOp::MemRead || mi.op == MicroOp::MemWrite;
  });
  const int dataOffset = static_cast<int>(micro.end() - firstData);
  PSCP_ASSERT(dataOffset < 256);
  const int32_t memPack = bytes | (chunks << 8) | (dataOffset << 16);

  // Static microprogram cost, charged up front (the anchor op).
  IrInst cost;
  cost.op = IrOp::kAddCycles;
  cost.imm = staticCost;
  cost.isa = i;
  push(cost);

  auto mk = [&](IrOp op) {
    IrInst n;
    n.op = op;
    n.width = static_cast<uint8_t>(w);
    n.isa = i;
    return n;
  };
  auto alu = [&](IrOp op, bool withOp, bool carry) {
    IrInst n = mk(op);
    n.dst = kVregAcc;
    n.src1 = kVregAcc;
    n.src2 = withOp ? kVregOp : -1;
    n.setZ = n.setN = true;
    n.setC = carry;
    push(n);
  };
  auto memDirect = [&](IrOp op, int reg) {
    IrInst n = mk(op);
    n.imm = in.operand;
    n.imm2 = memPack;
    if (op == IrOp::kLoad)
      n.dst = static_cast<int8_t>(reg);
    else
      n.src1 = static_cast<int8_t>(reg);
    push(n);
  };
  auto addrFromOp = [&](int32_t disp) {
    // mar = (OP & 0xFFFF) + disp, raw 32-bit wrap like the interpreter.
    IrInst m = mk(IrOp::kMask);
    m.dst = kVregTmp;
    m.src1 = kVregOp;
    m.imm = 0xFFFF;
    push(m);
    if (disp != 0) {
      IrInst a = mk(IrOp::kAddImm);
      a.dst = kVregTmp;
      a.src1 = kVregTmp;
      a.imm = disp;
      push(a);
    }
  };
  auto memIndirect = [&](bool isLoad, int32_t disp) {
    addrFromOp(disp);
    IrInst n = mk(isLoad ? IrOp::kLoadAt : IrOp::kStoreAt);
    n.src1 = kVregTmp;
    n.imm2 = memPack;
    if (isLoad)
      n.dst = kVregAcc;
    else
      n.src2 = kVregAcc;
    push(n);
  };
  auto branch = [&](IrOp op) {
    IrInst n = mk(op);
    n.imm = in.operand;
    push(n);
  };

  switch (in.op) {
    case Opcode::Nop:
      break;
    case Opcode::LdaImm:
    case Opcode::LdoImm: {
      IrInst n = mk(IrOp::kLoadImm);
      n.dst = in.op == Opcode::LdaImm ? kVregAcc : kVregOp;
      n.imm = static_cast<int32_t>(static_cast<uint32_t>(in.operand) & mask);
      push(n);
      break;
    }
    case Opcode::LdaMem: memDirect(IrOp::kLoad, kVregAcc); break;
    case Opcode::LdoMem: memDirect(IrOp::kLoad, kVregOp); break;
    case Opcode::StaMem: memDirect(IrOp::kStore, kVregAcc); break;
    case Opcode::LdaInd: memIndirect(true, 0); break;
    case Opcode::StaInd: memIndirect(false, 0); break;
    case Opcode::LdaIdx: memIndirect(true, in.operand); break;
    case Opcode::StaIdx: memIndirect(false, in.operand); break;
    case Opcode::LdaReg:
    case Opcode::LdoReg: {
      IrInst n = mk(IrOp::kRegGet);
      n.dst = in.op == Opcode::LdaReg ? kVregAcc : kVregOp;
      n.imm = in.operand;
      push(n);
      break;
    }
    case Opcode::StaReg: {
      IrInst n = mk(IrOp::kRegSet);
      n.src1 = kVregAcc;
      n.imm = in.operand;
      push(n);
      break;
    }
    case Opcode::Tao: {
      // AccToOp: OP = ACC & mask, no flags.
      IrInst n = mk(IrOp::kMask);
      n.dst = kVregOp;
      n.src1 = kVregAcc;
      n.imm = static_cast<int32_t>(mask);
      push(n);
      break;
    }
    case Opcode::Add: alu(IrOp::kAdd, true, true); break;
    case Opcode::Sub: alu(IrOp::kSub, true, true); break;
    case Opcode::And: alu(IrOp::kAnd, true, false); break;
    case Opcode::Or: alu(IrOp::kOr, true, false); break;
    case Opcode::Xor: alu(IrOp::kXor, true, false); break;
    case Opcode::Not: alu(IrOp::kNot, false, false); break;
    // Without a two's-complement unit the interpreter expands Neg into
    // Not+Inc chunks; the final value and Z/N are identical to the
    // one-state Neg (flags come from the final increment), so one IR op
    // covers both configurations.
    case Opcode::Neg: alu(IrOp::kNeg, false, false); break;
    case Opcode::Mul: alu(IrOp::kMul, true, false); break;
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Divu:
    case Opcode::Modu: {
      IrInst n = mk(IrOp::kDivMod);
      n.dst = kVregAcc;
      n.src1 = kVregAcc;
      n.src2 = kVregOp;
      n.signedOp = in.op == Opcode::Div || in.op == Opcode::Mod;
      n.isDiv = in.op == Opcode::Div || in.op == Opcode::Divu;
      n.setZ = n.setN = true;
      n.imm = i;  // ISA pc for the division-by-zero diagnostic
      push(n);
      break;
    }
    case Opcode::Cmp: {
      IrInst n = mk(IrOp::kCmp);
      n.src1 = kVregAcc;
      n.src2 = kVregOp;
      n.setZ = n.setN = n.setC = true;
      push(n);
      break;
    }
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Sar: {
      IrInst n = mk(in.op == Opcode::Shl   ? IrOp::kShl
                    : in.op == Opcode::Shr ? IrOp::kShr
                                           : IrOp::kSar);
      n.dst = kVregAcc;
      n.src1 = kVregAcc;
      n.imm = in.operand;
      n.setZ = n.setN = true;
      push(n);
      break;
    }
    case Opcode::Jmp: branch(IrOp::kJump); break;
    case Opcode::Jz: branch(IrOp::kJz); break;
    case Opcode::Jnz: branch(IrOp::kJnz); break;
    case Opcode::Jn: branch(IrOp::kJn); break;
    case Opcode::Jc: branch(IrOp::kJc); break;
    case Opcode::Call: {
      branch(IrOp::kCall);
      out.hasCalls = true;
      break;
    }
    case Opcode::Ret: push(mk(IrOp::kRet)); break;
    case Opcode::Inp: {
      IrInst n = mk(IrOp::kPortRead);
      n.dst = kVregAcc;
      n.imm = in.operand;
      push(n);
      break;
    }
    case Opcode::Outp: {
      IrInst n = mk(IrOp::kPortWrite);
      n.src1 = kVregAcc;
      n.imm = in.operand;
      // The PortWrite micro-op is the last state of its microprogram; the
      // instruction's full cost is charged before this op runs, so the
      // interpreter-visible machine time is one cycle earlier.
      n.imm2 = -1;
      push(n);
      break;
    }
    case Opcode::EvSet: {
      IrInst n = mk(IrOp::kEvSet);
      n.imm = in.operand;
      n.imm2 = -1;  // EvSet is the last state of its microprogram
      push(n);
      break;
    }
    case Opcode::CSet:
    case Opcode::CClr: {
      IrInst n = mk(IrOp::kCondSet);
      n.imm = in.operand;
      n.imm2 = in.op == Opcode::CSet ? 1 : 0;
      push(n);
      break;
    }
    case Opcode::CTst:
    case Opcode::STst: {
      IrInst n = mk(in.op == Opcode::CTst ? IrOp::kCondTest : IrOp::kStateTest);
      n.dst = kVregAcc;
      n.imm = in.operand;
      n.setZ = true;
      push(n);
      break;
    }
    case Opcode::Tret: push(mk(IrOp::kTret)); break;
    case Opcode::Custom: {
      if (in.operand < 0 ||
          static_cast<size_t>(in.operand) >= config.customInstructions.size()) {
        reason = strfmt("isa %d: custom index %d out of range", i, in.operand);
        return;
      }
      IrInst n = mk(IrOp::kCustom);
      n.dst = kVregAcc;
      n.src1 = kVregAcc;
      n.src2 = kVregOp;
      n.imm = in.operand;
      n.imm2 = config.customInstructions[static_cast<size_t>(in.operand)].width;
      n.setZ = n.setN = true;
      push(n);
      break;
    }
  }
}

// ------------------------------------------------------- constant folding

struct FoldVal {
  bool known = false;
  uint32_t value = 0;
};

struct FoldState {
  FoldVal vreg[kVregCount];
  FoldVal flagZ, flagN, flagC;
  void clear() { *this = FoldState{}; }
};

/// Exact interpreter ALU semantics (machine.cpp aluExec / exec paths).
struct AluResult {
  uint32_t value = 0;
  bool z = false, n = false, c = false;
  bool carryValid = false;
};

std::optional<AluResult> evalAlu(const IrInst& in, uint32_t s1, uint32_t s2) {
  const int w = in.width;
  const uint32_t m = maskBits(w);
  const uint32_t a = s1 & m;
  const uint32_t b = s2 & m;
  AluResult r;
  uint64_t wide = 0;
  switch (in.op) {
    case IrOp::kAdd:
      wide = static_cast<uint64_t>(a) + b;
      r.c = (wide >> w) != 0;
      r.carryValid = true;
      break;
    case IrOp::kSub:
      wide = static_cast<uint64_t>(a) - b;
      r.c = a < b;
      r.carryValid = true;
      break;
    case IrOp::kAnd: wide = a & b; break;
    case IrOp::kOr: wide = a | b; break;
    case IrOp::kXor: wide = a ^ b; break;
    case IrOp::kNot: wide = ~a; break;
    case IrOp::kNeg: wide = 0 - static_cast<uint64_t>(a); break;
    case IrOp::kMul: wide = s1 * s2; break;  // raw 32-bit product, truncated
    case IrOp::kShl: wide = s1 << (in.imm & 31); break;  // raw ACC
    case IrOp::kShr: wide = a >> (in.imm & 31); break;
    case IrOp::kSar:
      wide = static_cast<uint32_t>(signExtend(a, w) >> (in.imm & 31));
      break;
    default:
      return std::nullopt;
  }
  r.value = truncBits(static_cast<uint32_t>(wide), w);
  r.z = r.value == 0;
  r.n = w < 32 ? ((r.value >> (w - 1)) & 1u) != 0 : (r.value >> 31) != 0;
  return r;
}

void constFold(IrRoutine& r) {
  // ISA indices that are branch/call targets: the lattice resets there
  // (control can arrive from elsewhere).
  std::vector<int> targets{r.entryIsa};
  for (const IrInst& in : r.code) {
    switch (in.op) {
      case IrOp::kJump:
      case IrOp::kJz:
      case IrOp::kJnz:
      case IrOp::kJn:
      case IrOp::kJc:
      case IrOp::kCall:
        targets.push_back(in.imm);
        break;
      default:
        break;
    }
  }
  std::sort(targets.begin(), targets.end());

  std::vector<IrInst> out;
  out.reserve(r.code.size());
  FoldState st;
  int folded = 0;

  auto emitFlag = [&](IrOp op, bool value, const IrInst& like) {
    IrInst n;
    n.op = op;
    n.imm = value ? 1 : 0;
    n.isa = like.isa;
    out.push_back(n);
  };

  for (const IrInst& in : r.code) {
    if (in.op == IrOp::kAddCycles &&
        std::binary_search(targets.begin(), targets.end(), in.isa))
      st.clear();

    auto s1 = in.src1 >= 0 ? st.vreg[in.src1] : FoldVal{};
    auto s2 = in.src2 >= 0 ? st.vreg[in.src2] : FoldVal{};
    auto setDst = [&](bool known, uint32_t v) {
      if (in.dst >= 0) st.vreg[in.dst] = {known, v};
    };
    auto setFlags = [&](bool known, bool z, bool n, bool c, bool cValid) {
      if (in.setZ) st.flagZ = {known, z};
      if (in.setN) st.flagN = {known, n};
      if (in.setC) st.flagC = {known && cValid, c};
    };

    switch (in.op) {
      case IrOp::kLoadImm:
        setDst(true, static_cast<uint32_t>(in.imm));
        out.push_back(in);
        continue;
      case IrOp::kCopy:
        setDst(s1.known, s1.value);
        if (s1.known) {
          IrInst n = in;
          n.op = IrOp::kLoadImm;
          n.src1 = -1;
          n.imm = static_cast<int32_t>(s1.value);
          out.push_back(n);
          ++folded;
        } else {
          out.push_back(in);
        }
        continue;
      case IrOp::kMask:
      case IrOp::kAddImm: {
        const uint32_t v = in.op == IrOp::kMask
                               ? (s1.value & static_cast<uint32_t>(in.imm))
                               : (s1.value + static_cast<uint32_t>(in.imm));
        setDst(s1.known, v);
        if (s1.known) {
          IrInst n = in;
          n.op = IrOp::kLoadImm;
          n.src1 = -1;
          n.imm = static_cast<int32_t>(v);
          out.push_back(n);
          ++folded;
        } else {
          out.push_back(in);
        }
        continue;
      }
      case IrOp::kAdd:
      case IrOp::kSub:
      case IrOp::kAnd:
      case IrOp::kOr:
      case IrOp::kXor:
      case IrOp::kNot:
      case IrOp::kNeg:
      case IrOp::kMul:
      case IrOp::kShl:
      case IrOp::kShr:
      case IrOp::kSar: {
        const bool binary = in.src2 >= 0;
        const bool knownIn = s1.known && (!binary || s2.known);
        if (knownIn) {
          if (auto res = evalAlu(in, s1.value, s2.value)) {
            setDst(true, res->value);
            setFlags(true, res->z, res->n, res->c, res->carryValid);
            IrInst n = in;
            n.op = IrOp::kLoadImm;
            n.src1 = n.src2 = -1;
            n.setZ = n.setN = n.setC = false;
            n.imm = static_cast<int32_t>(res->value);
            out.push_back(n);
            if (in.setZ) emitFlag(IrOp::kSetZ, res->z, in);
            if (in.setN) emitFlag(IrOp::kSetN, res->n, in);
            if (in.setC && res->carryValid) emitFlag(IrOp::kSetC, res->c, in);
            ++folded;
            continue;
          }
        }
        setDst(false, 0);
        setFlags(false, false, false, false, true);
        out.push_back(in);
        continue;
      }
      case IrOp::kCmp: {
        if (s1.known && s2.known) {
          const uint32_t m = maskBits(in.width);
          const uint32_t a = s1.value & m, b = s2.value & m;
          const bool z = a == b;
          const bool n = signExtend(a, in.width) < signExtend(b, in.width);
          const bool c = a < b;
          st.flagZ = {true, z};
          st.flagN = {true, n};
          st.flagC = {true, c};
          emitFlag(IrOp::kSetZ, z, in);
          emitFlag(IrOp::kSetN, n, in);
          emitFlag(IrOp::kSetC, c, in);
          ++folded;
          continue;
        }
        setFlags(false, false, false, false, true);
        out.push_back(in);
        continue;
      }
      case IrOp::kSetZ: st.flagZ = {true, in.imm != 0}; out.push_back(in); continue;
      case IrOp::kSetN: st.flagN = {true, in.imm != 0}; out.push_back(in); continue;
      case IrOp::kSetC: st.flagC = {true, in.imm != 0}; out.push_back(in); continue;
      case IrOp::kJz:
      case IrOp::kJnz:
      case IrOp::kJn:
      case IrOp::kJc: {
        const FoldVal* f = (in.op == IrOp::kJz || in.op == IrOp::kJnz)
                               ? &st.flagZ
                               : in.op == IrOp::kJn ? &st.flagN : &st.flagC;
        const bool wantSet = in.op != IrOp::kJnz;
        if (f->known) {
          ++folded;
          if ((f->value != 0) == wantSet) {
            IrInst n = in;
            n.op = IrOp::kJump;
            out.push_back(n);
            st.clear();  // following code (if any) starts a new block
          }
          // else: never taken — drop the jump, fall through.
          continue;
        }
        out.push_back(in);
        continue;
      }
      case IrOp::kJump:
      case IrOp::kRet:
      case IrOp::kTret:
      case IrOp::kRunOff:
        out.push_back(in);
        st.clear();
        continue;
      case IrOp::kCall:
        out.push_back(in);
        st.clear();  // continuation resumes from an unknown callee state
        continue;
      case IrOp::kDivMod:
        // Not folded: division by zero must fail at runtime with the
        // interpreter's diagnostic, and signed overflow is left to the
        // same host arithmetic the interpreter uses.
        setDst(false, 0);
        setFlags(false, false, false, false, true);
        out.push_back(in);
        continue;
      case IrOp::kCondTest:
      case IrOp::kStateTest:
        setDst(false, 0);
        if (in.setZ) st.flagZ = {false, false};
        out.push_back(in);
        continue;
      case IrOp::kLoad:
      case IrOp::kLoadAt:
      case IrOp::kRegGet:
      case IrOp::kPortRead:
      case IrOp::kCustom:
        setDst(false, 0);
        setFlags(false, false, false, false, true);
        out.push_back(in);
        continue;
      case IrOp::kAddCycles:
      case IrOp::kStore:
      case IrOp::kStoreAt:
      case IrOp::kRegSet:
      case IrOp::kPortWrite:
      case IrOp::kEvSet:
      case IrOp::kCondSet:
        out.push_back(in);
        continue;
    }
  }
  r.code = std::move(out);
  r.stats.constFolded += folded;
}

// -------------------------------------------------------- jump threading

void threadJumps(IrRoutine& r, const LowerLimits& limits) {
  int threaded = 0;
  for (IrInst& in : r.code) {
    switch (in.op) {
      case IrOp::kJump:
      case IrOp::kJz:
      case IrOp::kJnz:
      case IrOp::kJn:
      case IrOp::kJc:
      case IrOp::kCall:
        break;
      default:
        continue;
    }
    int target = in.imm;
    int64_t extra = in.imm2;
    bool changed = false;
    std::vector<int> visited{target};
    for (int hop = 0; hop < limits.maxThreadingHops; ++hop) {
      const int anchor = r.anchorOf(target);
      if (anchor < 0 || anchor + 1 >= static_cast<int>(r.code.size())) break;
      const IrInst& a = r.code[static_cast<size_t>(anchor)];
      const IrInst& next = r.code[static_cast<size_t>(anchor) + 1];
      // Thread only through "charge cost, jump" instructions: the skipped
      // instruction's static cost moves onto the taken edge, so the cycle
      // account is unchanged.
      if (next.op != IrOp::kJump || next.isa != a.isa) break;
      const int dest = next.imm;
      if (std::find(visited.begin(), visited.end(), dest) != visited.end())
        break;  // jump cycle (infinite loop of jumps): leave as-is
      visited.push_back(dest);
      extra += a.imm + next.imm2;
      target = dest;
      changed = true;
    }
    if (changed && extra <= INT32_MAX) {
      in.imm = target;
      in.imm2 = static_cast<int32_t>(extra);
      ++threaded;
    }
  }
  r.stats.jumpsThreaded += threaded;
}

// ------------------------------------------------ dead-store elimination

constexpr uint8_t kLiveAcc = 1 << 0;
constexpr uint8_t kLiveOp = 1 << 1;
constexpr uint8_t kLiveTmp = 1 << 2;
constexpr uint8_t kLiveZ = 1 << 3;
constexpr uint8_t kLiveN = 1 << 4;
constexpr uint8_t kLiveC = 1 << 5;
constexpr uint8_t kLiveAll = 0x3F;

uint8_t vregBit(int v) {
  switch (v) {
    case kVregAcc: return kLiveAcc;
    case kVregOp: return kLiveOp;
    case kVregTmp: return kLiveTmp;
    default: return 0;
  }
}

bool isRemovable(IrOp op) {
  switch (op) {
    case IrOp::kLoadImm:
    case IrOp::kCopy:
    case IrOp::kMask:
    case IrOp::kAddImm:
    case IrOp::kAdd:
    case IrOp::kSub:
    case IrOp::kAnd:
    case IrOp::kOr:
    case IrOp::kXor:
    case IrOp::kNot:
    case IrOp::kNeg:
    case IrOp::kMul:
    case IrOp::kCmp:
    case IrOp::kShl:
    case IrOp::kShr:
    case IrOp::kSar:
    case IrOp::kSetZ:
    case IrOp::kSetN:
    case IrOp::kSetC:
      return true;  // pure value/flag producers — no host or cycle effects
    default:
      return false;
  }
}

void deadStoreElim(IrRoutine& r) {
  const int n = static_cast<int>(r.code.size());
  if (n == 0) return;

  // Successor offsets per op. -1 entries are exits.
  std::vector<std::vector<int>> succ(static_cast<size_t>(n));
  std::vector<uint8_t> exitLive(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const IrInst& in = r.code[static_cast<size_t>(i)];
    auto addTarget = [&](int isaTarget) {
      const int a = r.anchorOf(isaTarget);
      if (a >= 0)
        succ[static_cast<size_t>(i)].push_back(a);
      else
        exitLive[static_cast<size_t>(i)] |= 0;  // runoff stub: nothing live
    };
    switch (in.op) {
      case IrOp::kJump:
        addTarget(in.imm);
        break;
      case IrOp::kJz:
      case IrOp::kJnz:
      case IrOp::kJn:
      case IrOp::kJc:
      case IrOp::kCall:
        addTarget(in.imm);
        if (i + 1 < n) succ[static_cast<size_t>(i)].push_back(i + 1);
        break;
      case IrOp::kRet:
        // Returns to an unknown in-routine continuation: everything live.
        exitLive[static_cast<size_t>(i)] = kLiveAll;
        break;
      case IrOp::kTret:
        // ACC/OP and flags are synced back to the architectural TEP state.
        exitLive[static_cast<size_t>(i)] = kLiveAcc | kLiveOp | kLiveZ | kLiveN | kLiveC;
        break;
      case IrOp::kRunOff:
        break;  // fatal error: nothing observed afterwards
      default:
        if (i + 1 < n) succ[static_cast<size_t>(i)].push_back(i + 1);
        break;
    }
  }

  auto useDef = [](const IrInst& in, uint8_t& use, uint8_t& def) {
    use = def = 0;
    if (in.src1 >= 0) use |= vregBit(in.src1);
    if (in.src2 >= 0) use |= vregBit(in.src2);
    if (in.dst >= 0) def |= vregBit(in.dst);
    if (in.setZ) def |= kLiveZ;
    if (in.setN) def |= kLiveN;
    if (in.setC) def |= kLiveC;
    switch (in.op) {
      case IrOp::kJz: case IrOp::kJnz: use |= kLiveZ; break;
      case IrOp::kJn: use |= kLiveN; break;
      case IrOp::kJc: use |= kLiveC; break;
      default: break;
    }
  };

  // Backward liveness to fixpoint (routines are small; iterate simply).
  std::vector<uint8_t> liveOut(static_cast<size_t>(n), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = n - 1; i >= 0; --i) {
      uint8_t lo = exitLive[static_cast<size_t>(i)];
      for (int s : succ[static_cast<size_t>(i)]) {
        const IrInst& sin = r.code[static_cast<size_t>(s)];
        uint8_t use = 0, def = 0;
        useDef(sin, use, def);
        lo |= static_cast<uint8_t>((liveOut[static_cast<size_t>(s)] & ~def) | use);
      }
      if (lo != liveOut[static_cast<size_t>(i)]) {
        liveOut[static_cast<size_t>(i)] = lo;
        changed = true;
      }
    }
  }

  int removed = 0;
  std::vector<IrInst> out;
  out.reserve(r.code.size());
  for (int i = 0; i < n; ++i) {
    IrInst in = r.code[static_cast<size_t>(i)];
    const uint8_t lo = liveOut[static_cast<size_t>(i)];
    if (isRemovable(in.op)) {
      const bool dstDead = in.dst < 0 || (lo & vregBit(in.dst)) == 0;
      const bool zDead = !in.setZ || (lo & kLiveZ) == 0;
      const bool nDead = !in.setN || (lo & kLiveN) == 0;
      const bool cDead = !in.setC || (lo & kLiveC) == 0;
      const bool isFlagStore =
          in.op == IrOp::kSetZ || in.op == IrOp::kSetN || in.op == IrOp::kSetC;
      if (isFlagStore) {
        const uint8_t bit = in.op == IrOp::kSetZ   ? kLiveZ
                            : in.op == IrOp::kSetN ? kLiveN
                                                   : kLiveC;
        if ((lo & bit) == 0) {
          ++removed;
          continue;
        }
      } else if (dstDead && zDead && nDead && cDead) {
        ++removed;
        continue;
      } else {
        // Keep the op but drop dead flag updates (cheaper native code).
        if (in.setZ && (lo & kLiveZ) == 0) { in.setZ = false; ++removed; }
        if (in.setN && (lo & kLiveN) == 0) { in.setN = false; ++removed; }
        if (in.setC && (lo & kLiveC) == 0) { in.setC = false; ++removed; }
      }
    }
    out.push_back(in);
  }
  r.code = std::move(out);
  r.stats.deadRemoved += removed;
}

}  // namespace

LowerResult lowerRoutine(const AsmProgram& program, int entry,
                         const hwlib::ArchConfig& config,
                         const LowerLimits& limits) {
  LowerResult res;
  Lowerer l{program, config, limits, {}, {}};
  if (!l.lower(entry)) {
    res.reason = l.reason.empty() ? "lowering failed" : l.reason;
    return res;
  }
  res.routine = std::move(l.out);
  constFold(res.routine);
  threadJumps(res.routine, limits);
  deadStoreElim(res.routine);
  res.routine.stats.finalOps = static_cast<int>(res.routine.code.size());
  res.ok = true;
  return res;
}

}  // namespace pscp::tep::ir
