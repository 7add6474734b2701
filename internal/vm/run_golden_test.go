package vm_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pathmark/internal/vm"
)

// runGolden is hex(sha256(runRecord(p))) for every program of
// dumpCorpus: what the interpreter computes and reports in every run
// mode, and how it fails under step budgets and a cancelled context.
// The run modes share one loop, so their equivalence tests cannot see a
// change in it; this table can.
var runGolden = map[string]string{
	"gcd":                      "a2b9aa66e36b6ad2572c7036da818f75a25f2bd6bedaa59860904927e2a2d3f6",
	"gcd/marked":               "8e00f7f36e28ad7bee4d48825c47aa74d64c75a12391e543b838aacc3f8d37e6",
	"caffeinemark":             "5c5b0a47bd21b7f8ac388891a8553c7973771c894d792c75b11baa00c9b4dad1",
	"caffeinemark/marked":      "1208c0f972d6ac91bc336332d2a848862491755e7838761031a69141a9a41884",
	"minicalc":                 "1ce53e944f4d13b69ea3e7b2a80999d8eab645efe733afe95d036c89a2f604ce",
	"minicalc/marked":          "05c7bfde0512517fe8fd3608ef761be5b9aa021ae4ac096bd0a626f897ccd359",
	"jesslike-1":               "ddb037412d0f2e9ed11ca0d89c625a474b1e4e2767aa765f2817058986283453",
	"jesslike-1/marked":        "8c8dc2656ff07184abc5d77e8753c3c2d9bfff66d9d9fd8efea7ca425d43f8e8",
	"jesslike-2":               "be7b1cde9e63eadcc1705956519ecc42f5bd23cdc6731543da11912c24c5c624",
	"jesslike-2/marked":        "8bea14030ca5c7be059bf288925a028bbbaedf7350f4329653f78ee9b82d577d",
	"jesslike-3":               "dbdf588b7eacf5e92b9c5c25d1a4d41e8359e7c26c70aee582a2a70e6ca0ad96",
	"jesslike-3/marked":        "7e565fc42e410a90e72d592263ffb8199662a429764ed1a03f4612e60d7b45b8",
	"caffeinemark/marked64":    "a764b482f1a94df02ca331fb9b7ba81fe21a05d8e56ea4205a80408b97875453",
	"jesslike-60x150/batch128": "9a09df52e287e4ae22d9f2ca94929c11efd1d46f471b8baedb89b30856fe6321",
	"random-0":                 "56c60be7f8d6b0c70e2486a171845e285f805b32f9085837c726be228a205f78",
	"random-1":                 "d49fd236044eaf45ae9a2adc4bf47c9541b936bd8b86b2a1119d9756b4164ea2",
	"random-2":                 "dd9d1be4a7dc9004426c17c049d5987e3562410272f5f2043fac590ef7d93e85",
	"random-3":                 "ff9bcfec19f9ea1c159da4042e0982eb9a3ea21d89f0b6ce01dce7aee547b097",
	"random-4":                 "c6fe8c1322f87cb82d7deb9187f44d6c6efe63102fb70483a16f765d26d63631",
	"random-5":                 "44c98435f9fe7e0206521b54a6af418db3be1f3dbeb0ca32087c7e2213ea32a3",
	"random-6":                 "4c7f16f4a2175e02057ea66ccab3147ab3d9f5d053865788f06f3c63c728e667",
	"random-7":                 "898c17eacac2ab32a72e98cf615f386ca9f8afc0ba4982466cb29e1f0704457c",
	"random-8":                 "6af55d8bd05d86de66714a27413e336e06f24f135986a465a4f0b21b56d2ae18",
	"random-9":                 "5c4074267a4653987f3bb5bffa46d7ea85fac97e563cc6ac4f6986b6db8a229b",
	"random-10":                "a12a4a9f7b9074a341173de378f16e11d8875f1b65912c2b3b159492033c3952",
	"random-11":                "5d2faf8e04a7bdbb76011b3051fb512203fb5556db7d72996cbe405ea61544d5",
	"random-12":                "bb757674461d061e5c286710c293a8d8621fefe39e7c6ea6f35cec2c0b8b301e",
	"random-13":                "40c492bfb0823f350bbecbae81d6bf8c11eaac623f1c06a90b9f39646a6dba4b",
	"random-14":                "8ea8c6b5940ebf69ed5f0d593cc9c49496540a0198580ebc740b15e9590dc79c",
	"random-15":                "83a005e34ee573936eb724bf4d09092b4b74d768ddafdd6e15db7e8d57de264d",
	"random-16":                "736a785fc20dad1c1ee94767c872099102228479aa58ad37362a0e64e7903f99",
	"random-17":                "0300af248c303d5410baa919e1fac8938157eb62f012c08cff0ce050cf2e1f79",
	"random-18":                "ab4f65a5cf9196b0e0e5062d076c569e277fef8144c81ebe7e672011d5fd2485",
	"random-19":                "cd55bde63b43c68acbf0994888e874d7a367647d0c8ea4465f9b4f0b6d9b4b09",
	"random-20":                "ac2aa82d9075935361b8607100956cd7ee9d93f204ff71909bd5551196bc20b8",
	"random-21":                "fdf5a50c1a24162210909a60138eb697f2ba830a75f139c4e6f174bee513a645",
	"random-22":                "51a09f944b5f640af344a34aac26ebb91af17ff078e844c0ad58885b7df88e87",
	"random-23":                "3d92b7775144c4fe77ceb1276793755b31fbe1accb2945ef97de676c667f5be0",
	"random-24":                "6265e033ea857618fe7fd56c033d97a1547e5eaba7c83fe7b2e660c12a693f18",
	"random-25":                "40100a99a5dba12a2d3d83a36c64afdc62309eb67e9b710e9932f12d3ae946db",
	"random-26":                "ac210a8c174e722d7c9e7ae5646d8bb14f7a30a8f3fabfca9165ced2b5fe7ff4",
	"random-27":                "6b319a02351ed2e047efb6707e4aa30678e8bf0ba7f0124da211dcf5222a3f85",
	"random-28":                "60efc1f54aaf86c1a090242cfd9994e4a391d902ccbf6b39e656477c1001912c",
	"random-29":                "c543bc062c9321457cb7c750682915576a8d5decef1e1e249efa32e0d8acf669",
	"random-30":                "f808edcc8e742dbf6d7cb9131940f48a01ed11104872999df2c958634c0eb632",
	"random-31":                "a0bbcc0fff2ef46f0bbefb2bf7009eec3b85d7ba8d895b93a78c0a7488e5d1a4",
	"random-32":                "28d30565d6521728c4bffb0c35490a53865d7884ae2ed78419fb6efb8f81fd55",
	"random-33":                "8ecf74c47e1ed3ef068253bacdeff9ba2339a60706e05694e0ad0650b8bc89a3",
	"random-34":                "33e9e3602fabd601268d8a1dc4399298ddc657e51f4ebdfd23ff394650719d92",
	"random-35":                "28e03be51f9df7a1b9f9923f7fb738336cefae3768abd71aee84dd0355f19092",
	"random-36":                "be91309e27a20634e1466c76da46d2859d93900ace948d4efa5841f3d29d5f85",
	"random-37":                "0404acdadccb21a2486c167a94044a98bb5afb432522c3de0f1e9303a5acb857",
	"random-38":                "9120ef305aa6cdbbcd034c78a645fd8d0e64ccecbf44c85a6eeaa1505ba903a2",
	"random-39":                "1e7746ce205bd5a93bb12de6179e1262db0761744e071e9b2f533ed8750a9516",
	"random-40":                "d834f36ebb089dbcfe75421ea377a720a7a21f1e0bfdc36cf632f39a418882df",
	"random-41":                "61d680b373368d7d18ecd7079024791ba07d536f8546eed2df2eb9aea7854bd1",
	"random-42":                "a728bd6e96183bae56dfc99e6d4a07448d0ba47a45d81e1b64ee45e1a7156ff2",
	"random-43":                "c384ad4dd938b7261c60a8af319b3a0822f7260d3f8208756e27aa52a5218d43",
	"random-44":                "6aebd4f6fa7494ef43f92e754a4eb09825a49c88a998904d7279f2bb92aab0a7",
	"random-45":                "f7d57838014317f7ad8f1f56d007b7919b39f0dcf2e2eb13b175395d508ae12f",
	"random-46":                "f5cb4f6f8476c1548d9944539854c8aaf92362e72a3e8551ebf3a6c970815440",
	"random-47":                "6e256d98c73945b23efc6a6a43095cc0035e09f5b696569bc61fe9d2c124e6d5",
	"random-48":                "7640f5f883016c16751059436d5a735c48db3ceed83f3a03590b0955cf707373",
	"random-49":                "0340f055dc7d5a2ba3f219cb9ca54ff07b6f46b838b7ce98fd697bf2abe79b7f",
}

// runRecord renders everything the one interpreter loop reports for p
// on equivInput:
//   - Run: Return, Output and Steps;
//   - CollectBits: the bits;
//   - Profile: Steps, OpCount, Calls and MaxObservedDepth;
//   - CollectWith: Events, and the entry counts and snapshots of every
//     entered block;
//   - the error text, Used and PC of Run under StepLimit 1, 4095, 4096,
//     4097, Steps−1 and Steps, with and without a live context, and
//     under a context cancelled before the run starts.
func runRecord(p *vm.Program) string {
	var sb strings.Builder
	outcome := func(label string, res *vm.Result, err error) {
		fmt.Fprintf(&sb, "%s: ", label)
		var re *vm.ResourceError
		var rt *vm.RuntimeError
		switch {
		case errors.As(err, &re):
			fmt.Fprintf(&sb, "err %q used %d limit %d method %s pc %d\n", err, re.Used, re.Limit, re.Method, re.PC)
		case errors.As(err, &rt):
			fmt.Fprintf(&sb, "err %q method %s pc %d\n", err, rt.Method, rt.PC)
		case err != nil:
			fmt.Fprintf(&sb, "err %q\n", err)
		default:
			fmt.Fprintf(&sb, "return %d output %v steps %d\n", res.Return, res.Output, res.Steps)
		}
	}

	res, err := vm.Run(p, vm.RunOptions{Input: equivInput})
	outcome("run", res, err)

	bits, bres, err := vm.CollectBits(p, vm.RunOptions{Input: equivInput})
	outcome("bits", bres, err)
	if err == nil {
		fmt.Fprintf(&sb, "bits %s\n", bits)
	}

	prof := vm.NewProfile()
	pres, err := vm.Run(p, vm.RunOptions{Input: equivInput, Profile: prof})
	outcome("profile", pres, err)
	fmt.Fprintf(&sb, "profile steps %d ops %v calls %d depth %d\n",
		prof.Steps, prof.OpCount, prof.Calls, prof.MaxObservedDepth)

	tr, tres, err := vm.CollectWith(p, vm.RunOptions{Input: equivInput})
	outcome("trace", tres, err)
	if err == nil {
		fmt.Fprintf(&sb, "events %v\n", tr.Events)
		for mi, m := range tr.Blocks.Methods {
			for bi, c := range m.Count {
				if c > 0 {
					fmt.Fprintf(&sb, "block %v count %d snaps %v\n", vm.BlockKey{Method: mi, Block: bi}, c, m.Snapshots(bi))
				}
			}
		}
	}

	if res != nil {
		live, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := map[int64]bool{}
		for _, k := range []int64{1, 4095, 4096, 4097, res.Steps - 1, res.Steps} {
			if k <= 0 || done[k] {
				continue
			}
			done[k] = true
			r, err := vm.Run(p, vm.RunOptions{Input: equivInput, StepLimit: k})
			outcome(fmt.Sprintf("limit %d", k), r, err)
			r, err = vm.Run(p, vm.RunOptions{Input: equivInput, StepLimit: k, Ctx: live})
			outcome(fmt.Sprintf("limit %d ctx", k), r, err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cres, err := vm.Run(p, vm.RunOptions{Input: equivInput, Ctx: cancelled})
	outcome("cancelled", cres, err)
	return sb.String()
}

// TestRunGolden pins runRecord for every program of dumpCorpus.
func TestRunGolden(t *testing.T) {
	corpus := dumpCorpus(t)
	for _, c := range corpus {
		sum := sha256.Sum256([]byte(runRecord(c.prog)))
		got := hex.EncodeToString(sum[:])
		if want, ok := runGolden[c.name]; !ok || got != want {
			t.Errorf("%s: sha256(runRecord) = %s, want %s", c.name, got, want)
		}
	}
	if len(corpus) != len(runGolden) {
		t.Errorf("corpus has %d programs, golden table %d", len(corpus), len(runGolden))
	}
}
