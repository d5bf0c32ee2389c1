#include "src/uvm/program.h"

#include <cassert>

#include "src/uvm/jit.h"

namespace fluke {

Program::Program(std::string name, std::vector<Instr> code)
    : name_(std::move(name)), code_(std::move(code)) {}

Program::~Program() = default;

JitProgram& Program::JitStateSlow() const {
  jit_ = std::make_unique<JitProgram>(*this);
  return *jit_;
}

bool Program::JitReady() const { return jit_ != nullptr && jit_->ready(); }

void ProgramRegistry::Register(ProgramRef program) {
  assert(program != nullptr);
  by_name_[program->name()] = std::move(program);
}

ProgramRef ProgramRegistry::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Assembler::Label Assembler::NewLabel() {
  label_targets_.push_back(-1);
  return static_cast<Label>(label_targets_.size() - 1);
}

void Assembler::Bind(Label label) {
  assert(label >= 0 && static_cast<size_t>(label) < label_targets_.size());
  assert(label_targets_[label] == -1 && "label bound twice");
  label_targets_[label] = static_cast<int32_t>(code_.size());
}

uint32_t Assembler::Emit(Op op, uint8_t a, uint8_t b, uint8_t c, uint32_t imm) {
  code_.push_back(Instr{op, a, b, c, imm});
  return static_cast<uint32_t>(code_.size() - 1);
}

void Assembler::EmitBranch(Op op, uint8_t a, uint8_t b, Label l) {
  const uint32_t idx = Emit(op, a, b, 0, 0);
  fixups_.emplace_back(idx, l);
}

ProgramRef Assembler::Build() {
  for (const auto& [idx, label] : fixups_) {
    assert(label_targets_[label] >= 0 && "branch to unbound label");
    code_[idx].imm = static_cast<uint32_t>(label_targets_[label]);
  }
  fixups_.clear();
  return std::make_shared<Program>(name_, code_);
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kHalt:
      return "halt";
    case Op::kNop:
      return "nop";
    case Op::kMovImm:
      return "movi";
    case Op::kMov:
      return "mov";
    case Op::kAdd:
      return "add";
    case Op::kSub:
      return "sub";
    case Op::kMul:
      return "mul";
    case Op::kAnd:
      return "and";
    case Op::kOr:
      return "or";
    case Op::kXor:
      return "xor";
    case Op::kShl:
      return "shl";
    case Op::kShr:
      return "shr";
    case Op::kAddImm:
      return "addi";
    case Op::kLoadB:
      return "ldb";
    case Op::kStoreB:
      return "stb";
    case Op::kLoadW:
      return "ldw";
    case Op::kStoreW:
      return "stw";
    case Op::kJmp:
      return "jmp";
    case Op::kBeq:
      return "beq";
    case Op::kBne:
      return "bne";
    case Op::kBlt:
      return "blt";
    case Op::kBge:
      return "bge";
    case Op::kSyscall:
      return "syscall";
    case Op::kCompute:
      return "compute";
    case Op::kBreak:
      return "break";
  }
  return "?";
}

}  // namespace fluke
